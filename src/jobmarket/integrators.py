"""Fixed-step integrators: classical RK4 for the noise-free system,
Euler-Maruyama and Milstein for the noisy one.

All three schemes take the drift from :func:`jobmarket.model.drift`. The
stochastic updates compute the diffusion sigma*u*v themselves and apply
it with opposite signs, so the step-to-step change of u + v is the pure
drift balance dt*(r*u*(1 - u/K) - d*v) up to a few ulps, independent of
the Brownian increment. Each update is written once, for Python floats
(one path) and lane arrays alike, and _STOCHASTIC_NEXT names the
stochastic ones for both engines.

An update writes only into arrays it made itself. Each result starts as
a fresh value, made by its expression's first operation, and every later
operation updates it by augmented assignment: u + du*dt becomes
du *= dt; du += u. The operations are the plain expression's, in its
order; only the two operands of a + or * may trade places, which rounds
alike, so the bits are the plain expression's (a NaN's sign aside, which
numpy's add does not fix either). On floats, x *= y rebinds the name; on
lane arrays it writes in place and saves allocating an array per
operation. The inputs are never written: dB is a row of the noise
stream's block, and a settled lane keeps stepping on it. The lane clamp
may write an update's result, which is the update's own fresh array: it
flushes near-zero lanes in place.

Milstein adds the derivative-of-diffusion correction for the single-noise
system with b = (-sigma*u*v, +sigma*u*v):

    corr_u = 0.5 * sigma^2 * u*v*(v - u) * (dB^2 - dt) = -corr_v

obtained from (b . grad) b; the two corrections are one product negated
and cancel exactly.

Positivity policy: the exact solution stays positive but a discrete step
can overshoot. A component that lands at or below -DBL_MIN is clamped to
zero and the event is counted; magnitudes inside the subnormal range
(below ~2.2e-308, where fixed-quantum rounding can flip signs on its own)
are flushed to exact zero silently, which makes extinction absorbing.
RK4 has no noise to blame, so it only repairs negativities smaller than
1e-12 relative to the state scale and fails otherwise. A non-finite
state fails under every scheme; it is never clamped.

Per-trajectory time averages are accumulated trapezoidally at full step
resolution while integrating, so thinned recording never degrades them.
"""

from __future__ import annotations

import itertools
import math
import sys
from types import SimpleNamespace
from typing import Collection, NamedTuple, Sequence, TextIO

import numpy as np

from . import brownian
from ._rules import (_OUTPUTS, Scheme, _check_initial, _check_noise_fit, _check_outputs,
                     _check_stochastic, _check_stride, _positive_finite, _resolve_steps)
from .brownian import BrownianPath, NoiseStream
from .errors import IntegrationError, ParameterError
from .model import ModelParams, State, drift

__all__ = [
    "Scheme",
    "Trajectory",
    "BatchResult",
    "step_em",
    "step_milstein",
    "simulate",
    "run_batch",
]

# Smallest positive normal double; below this, gradual underflow arithmetic
# can produce sign noise, so compartment values are flushed to exact zero.
_TINY = sys.float_info.min

_RK4_CLAMP_REL = 1e-12

# frozen lanes from which _Lanes splits its step: below about a thousand,
# its gathers, scatters and copies cost more than the steps it saves
_SPLIT_MIN = 1000


# ---------------------------------------------------------------------------
# shared update expressions (work elementwise on floats and on arrays)

def _em_next(u, v, dt, dB, p: ModelParams):
    # u + du*dt - noise and v + dv*dt + noise, into drift's fresh arrays
    du, dv = drift((u, v), p)
    noise = p.sigma * u
    noise *= v
    noise *= dB
    du *= dt
    du += u
    du -= noise
    dv *= dt
    dv += v
    dv += noise
    return du, dv


def _milstein_corr(u, v, dt, dB, p: ModelParams):
    # half_sigma_sq*u*v*(v - u)*(dB*dB - dt)
    corr = p.half_sigma_sq * u
    corr *= v
    corr *= v - u
    spread = dB * dB
    spread -= dt
    corr *= spread
    return corr


def _milstein_next(u, v, dt, dB, p: ModelParams):
    un, vn = _em_next(u, v, dt, dB, p)
    corr = _milstein_corr(u, v, dt, dB, p)
    un += corr
    vn -= corr
    return un, vn


def _rk4_next(u, v, dt, p: ModelParams):
    k1u, k1v = drift((u, v), p)
    k2u, k2v = drift((u + 0.5 * dt * k1u, v + 0.5 * dt * k1v), p)
    k3u, k3v = drift((u + 0.5 * dt * k2u, v + 0.5 * dt * k2v), p)
    k4u, k4v = drift((u + dt * k3u, v + dt * k3v), p)
    sixth = dt / 6.0
    return (u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + sixth * (k1v + 2.0 * (k2v + k3v) + k4v))


# the update of each stochastic scheme, read by the scalar and the lane step
_STOCHASTIC_NEXT = {Scheme.EULER_MARUYAMA: _em_next, Scheme.MILSTEIN: _milstein_next}


# ---------------------------------------------------------------------------
# scalar steps

def _clamp_scalar(x: float) -> tuple[float, bool]:
    if x >= _TINY:
        return x, False
    if not x > -math.inf:
        raise IntegrationError(f"state went non-finite ({x}); reduce the step size")
    # subnormal magnitudes (either sign) flush silently; a materially
    # negative value is a logged positivity clamp
    return 0.0, x <= -_TINY


def _scalar_next(update, u: float, v: float, dt, dB, p: ModelParams):
    """One step of one path on Python floats: (u, v, clamped). update is
    the scheme's entry in _STOCHASTIC_NEXT, or None for RK4, looked up once
    by the caller: an Enum's class attributes and hash are slow Python
    code. RK4 ignores dB, repairs a negativity below 1e-12 of the state
    scale and raises IntegrationError on any other; the stochastic schemes
    clamp."""
    if update is None:
        un, vn = _rk4_next(u, v, dt, p)
        for x in (un, vn):
            if not (x >= 0.0 or -x < _RK4_CLAMP_REL * max(1.0, abs(u) + abs(v))):
                raise IntegrationError(
                    f"RK4 step from ({u}, {v}) with dt={dt} went negative "
                    f"({x}); reduce the step size"
                )
        return un if un >= 0.0 else 0.0, vn if vn >= 0.0 else 0.0, False
    un, vn = update(u, v, dt, dB, p)
    un, cu = _clamp_scalar(un)
    vn, cv = _clamp_scalar(vn)
    return un, vn, cu or cv


def _step(update, s: State, dt: float, dB, p: ModelParams) -> tuple[State, bool]:
    _positive_finite("dt", dt)
    un, vn, clamped = _scalar_next(update, float(s[0]), float(s[1]), dt, dB, p)
    return State(un, vn), clamped


def step_em(s: State, dt: float, dB: float, p: ModelParams) -> tuple[State, bool]:
    """One Euler-Maruyama step; returns (new state, clamped flag), or
    raises IntegrationError when a component goes NaN or -inf."""
    return _step(_em_next, s, dt, dB, p)


def step_milstein(s: State, dt: float, dB: float, p: ModelParams) -> tuple[State, bool]:
    """One Milstein step; returns (new state, clamped flag).

    Coincides with step_em when dB^2 == dt or u == v, where the
    correction factor vanishes. Raises IntegrationError when a component
    goes NaN or -inf.
    """
    return _step(_milstein_next, s, dt, dB, p)


# ---------------------------------------------------------------------------
# trajectories

class Trajectory(NamedTuple):
    """A recorded solution path on a uniform time grid.

    times/u/v/clamped are aligned arrays; ``clamped[i]`` means at least one
    positivity clamp happened in the steps since the previous recorded row.
    clamp_count counts every clamp at full step resolution, independent of
    the recording stride, as the trapezoidal integral integral_v is taken.
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    clamped: np.ndarray
    scheme: Scheme
    params: ModelParams
    clamp_count: int
    seed: int | None  # the driving path's; None under RK4
    path_index: int | None
    integral_v: float | None  # None when simulate's outputs left them out
    max_total: float | None

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def terminal(self) -> State:
        return State(float(self.u[-1]), float(self.v[-1]))

    def to_csv(self, fp: TextIO) -> None:
        """Write rows t,u,v,clamped with round-trip decimal formatting."""
        fp.write("t,u,v,clamped\n")
        flags = self.clamped
        for i in range(len(self.times)):
            fp.write(f"{float(self.times[i])!r},{float(self.u[i])!r},"
                     f"{float(self.v[i])!r},{1 if flags[i] else 0}\n")


class _Records:
    """The default recorder: it keeps every recorded row, as the columns of
    U, V and clamped, of shape lanes + (n_rows,)."""

    def open(self, lanes: tuple[int, ...], n_rows: int) -> None:
        self.U = np.empty(lanes + (n_rows,))
        self.V = np.empty(lanes + (n_rows,))
        self.clamped = np.empty(lanes + (n_rows,), dtype=bool)
        # time-major views: row i of each is recorded column i
        self._rows = [np.moveaxis(a, -1, 0) for a in (self.U, self.V, self.clamped)]
        self._row = 0

    def put(self, u, v, clamped) -> None:
        rows_u, rows_v, rows_clamped = self._rows
        i = self._row
        rows_u[i] = u
        rows_v[i] = v
        rows_clamped[i] = clamped
        self._row = i + 1


def _advance(step, u, v, dt: float, n_steps: int, record_stride: int, noise,
             recorder, outputs: Collection[str] = _OUTPUTS):
    """The time loop shared by simulate and run_batch.

    u and v are Python floats (one path) or lane arrays. Each step calls
    step(k, u, v, dB) -> (u, v, clamp events), with dB taken from noise;
    events of None mean that no lane clamped. Clamp counts, and those of
    the trapezoid integral of v and the running max of u + v named in
    outputs, are kept at full step resolution; an accumulator not named
    costs nothing per step and is returned as None.

    The loop keeps no records: it hands each recorded row to recorder as
    it reaches it. recorder.open(lanes, n_rows) is called before the first
    step, with the lane shape (() for floats) and the number of rows; then
    recorder.put(u, v, clamped) is called with row 0, the initial state,
    and with every record_stride-th state after it. clamped is the mask of
    the lanes (a bool on floats) that clamped since the previous row. The
    arrays are the loop's own, and a recorder must not write to them.
    Returns the recorded times, the final u and v, the clamp counts and
    the two accumulators.
    """
    lanes = np.shape(u)  # () for one scalar path
    # on floats, builtin max() costs about 0.25 us a step more than this
    peak = np.maximum if lanes else (lambda a, b: b if b > a else a)
    recorder.open(lanes, n_steps // record_stride + 1)
    put = recorder.put
    counts = last = np.zeros(lanes, dtype=np.int64) if lanes else 0
    put(u, v, counts != last)  # row 0: no lane has clamped
    integral_v = (np.zeros(lanes) if lanes else 0.0) if "integral_v" in outputs else None
    max_total = u + v if "max_total" in outputs else None
    for k, dB in zip(range(1, n_steps + 1), noise):
        un, vn, events = step(k, u, v, dB)
        if events is not None:
            counts = counts + events
        if integral_v is not None:
            trapezoid = v + vn
            trapezoid *= 0.5
            trapezoid *= dt
            integral_v += trapezoid
        u, v = un, vn
        if max_total is not None:
            max_total = peak(max_total, u + v)
        if k % record_stride == 0:
            put(u, v, counts != last)
            last = counts
    times = np.arange(0, n_steps + 1, record_stride) * float(dt)
    return times, u, v, counts, integral_v, max_total


def simulate(scheme: Scheme, p: ModelParams, x0: State, horizon: float,
             dt: float, path: BrownianPath | None = None,
             record_stride: int = 1, *,
             outputs: Collection[str] = _OUTPUTS) -> Trajectory:
    """Advance x0 over [0, horizon] and record every record_stride-th state.

    Stochastic schemes require ``path`` covering at least horizon/dt steps
    at the same dt; RK4 takes no driving path. Time averages are
    accumulated at full resolution regardless of the recording stride.
    outputs names the accumulators to keep, as for run_batch. A failing
    step raises IntegrationError, prefixed with its start time.
    """
    n_steps = _resolve_steps(horizon, dt)
    _check_stride(n_steps, record_stride)
    _check_outputs(outputs)
    u, v = float(x0[0]), float(x0[1])
    _check_initial(u, v)

    if scheme.is_stochastic:
        if path is None:
            raise ParameterError(f"scheme {scheme.value} requires a Brownian path")
        _check_noise_fit(1, path.n_steps, path.dt, 1, n_steps, dt)
        # a float per step as it is read, not a list of them all
        noise = memoryview(np.ascontiguousarray(path.increments[:n_steps], dtype=float))
    else:
        if path is not None:
            raise ParameterError("deterministic RK4 takes no driving path")
        noise = itertools.repeat(None)
    update = _STOCHASTIC_NEXT.get(scheme)

    def step(k, u, v, dB):
        try:
            return _scalar_next(update, u, v, dt, dB, p)
        except IntegrationError as exc:
            raise IntegrationError(f"at t={(k - 1) * dt}: {exc}") from None

    records = _Records()
    times, u, v, count, integral_v, max_total = _advance(
        step, u, v, dt, n_steps, record_stride, noise, records, outputs)
    for x in (u, v):
        if not math.isfinite(x):  # a +inf from the last step; earlier ones fail the next
            raise IntegrationError(f"at t={(n_steps - 1) * dt}: state went "
                                   f"non-finite ({x}); reduce the step size")
    return Trajectory(
        times=times, u=records.U, v=records.V, clamped=records.clamped,
        scheme=scheme, params=p,
        clamp_count=count,
        seed=path.seed if path is not None else None,
        path_index=path.path_index if path is not None else None,
        integral_v=integral_v, max_total=max_total,
    )


# ---------------------------------------------------------------------------
# vectorised multi-path engine

class BatchResult(NamedTuple):
    """Per-path outputs of a vectorised run on a shared time grid.

    U and V have shape (n_paths, n_recorded), or (cells, n_paths,
    n_recorded) for a multi-cell run; the per-path arrays drop the last
    axis. Each path's column sequence is bit-identical to a scalar
    simulate() of that path alone, unless errors records a failure of its
    row, after which the row's values mean nothing. U, V and clamped are
    None when a recorder took the recorded rows.
    """

    times: np.ndarray
    U: np.ndarray | None
    V: np.ndarray | None
    clamped: np.ndarray | None   # lane shape + (n_recorded,) bool
    clamp_counts: np.ndarray     # lane shape, int
    # lane shape; None when the run's outputs left them out
    integral_v: np.ndarray | None  # full-resolution trapezoids
    max_total: np.ndarray | None   # running max of u + v
    errors: tuple[str | None, ...]  # per row: None, or its first failure
    scheme: Scheme
    params: ModelParams | tuple[ModelParams, ...]

    @property
    def n_paths(self) -> int:
        """Number of lanes (cells times paths for a multi-cell run)."""
        return self.clamp_counts.size

    @property
    def terminal_v(self) -> np.ndarray:
        return self.V[..., -1]

    def time_average_v(self) -> np.ndarray:
        return self.integral_v / float(self.times[-1])


def _stack_params(ps: tuple[ModelParams, ...], n_paths: int) -> SimpleNamespace:
    """The constants of several ModelParams, and their half_sigma_sq, as
    C-contiguous (cells, n_paths) arrays whose row c holds ps[c]'s value:
    lane-shaped, so a step's ufuncs on (cells, n_paths) lanes run on
    same-shape operands, which numpy dispatches faster than a broadcast."""
    names = [*ModelParams.__slots__, "half_sigma_sq"]
    return SimpleNamespace(**{
        name: np.repeat(np.array([[getattr(q, name)] for q in ps]), n_paths, axis=1)
        for name in names})


def _clamp_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None,
                                          np.ndarray | None]:
    """np.where(x >= _TINY, x, 0.0), the clamp events (finite lanes at or
    below -_TINY) and the failures (NaN or -inf lanes); events and
    failures are None when there are none. x must be an update's own
    fresh result, which nothing else reads: the flush tier writes into it.

    One min() picks the tier: every lane normal or +inf needs no pass and
    x comes back as is; lanes only as far below as the subnormals (an
    extinct lane sits at exact 0) are flushed in x itself, without an
    event test, and x comes back; anything lower, or a NaN minimum, takes
    the full pass into a new array, and only a NaN or -inf minimum looks
    for failures. A +inf lane fails on the next step, as NaN or -inf.
    """
    lo = np.minimum.reduce(x, None)  # x.min() without its Python wrapper
    if lo >= _TINY:
        return x, None, None
    if lo > -_TINY:
        # no NaN here (it would be the minimum): x < _TINY is the complement
        # of x >= _TINY. copyto(where=) is slower on scattered extinct lanes
        np.putmask(x, x < _TINY, 0.0)
        return x, None, None
    clamped = np.where(x >= _TINY, x, 0.0)
    events, failed = x <= -_TINY, None
    if not lo > -np.inf:
        failed = ~(x > -np.inf)
        events &= ~failed
    return clamped, events if events.any() else None, failed


def _union(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a | b of two lane masks, where None stands for no lane set."""
    return b if a is None else a if b is None else a | b


def _stochastic_next(update, u, v, dt, dB, coeffs):
    """One clamped Euler-Maruyama or Milstein step of lane arrays: (u, v,
    clamp events, failed lanes), the masks None when no lane clamped or
    failed. update is the scheme's entry in _STOCHASTIC_NEXT, looked up
    once per run, as for _scalar_next. dt may be a column that gives each
    row its own step."""
    un, vn = update(u, v, dt, dB, coeffs)
    un, ev_u, bad_u = _clamp_array(un)
    vn, ev_v, bad_v = _clamp_array(vn)
    return un, vn, _union(ev_u, ev_v), _union(bad_u, bad_v)


def _spread(mask: np.ndarray | None, lanes: np.ndarray, n: int) -> np.ndarray | None:
    """A lane mask over the gathered lanes as one over all n lanes."""
    if mask is None:
        return None
    full = np.zeros(n, dtype=bool)
    full[lanes] = mask
    return full


class _Lanes:
    """The step of a single-cell run_batch driven by a NoiseStream, which
    leaves frozen lanes alone and steps every other lane with the scheme.

    A lane is settled once v == 0. Each term of either scheme that holds
    dB has v as an earlier factor ((sigma*u*v)*dB, and
    half_sigma_sq*u*v*(v - u)*(dB*dB - dt)), which at v == +-0 is +-0 or
    NaN by u alone: +-0 times a finite dB is a +-0 that the clamp erases,
    and NaN fails the lane whatever dB is. So a settled lane's step is a
    map of its own state, and it stays settled; a new scheme must keep v
    ahead of dB likewise. settled is shared with the stream's drawer,
    which stops drawing a settled path's increments from its next block
    on; a settled lane that still moves is stepped with the stale noise.

    At the last step of each noise block, a settled lane whose step kept
    the bits of both u and v is frozen: its state is a fixed point of its
    step, bits and sign of zero included, so it never changes again. From
    _SPLIT_MIN frozen lanes on, or once every lane is frozen, step()
    gathers the other lanes, steps them with the scheme and scatters them
    back; below that every lane takes the scheme's step.
    """

    def __init__(self, update, p: ModelParams, dt: float, block: int,
                 u: np.ndarray, v: np.ndarray):
        self.update, self.p, self.dt, self.block = update, p, dt, block
        self.settled = brownian._mapped(u.size, dtype=bool)
        self.settled |= v == 0.0
        self.stepped: np.ndarray | None = None  # the lanes a split step steps

    def step(self, k: int, u: np.ndarray, v: np.ndarray, dB: np.ndarray):
        """_stochastic_next of every lane for step k; the last step of a block
        settles and freezes lanes for the next one."""
        out = self._next(u, v, dB)
        if k % self.block == 0:
            self._observe(u, v, out[0], out[1])
        return out

    def _observe(self, u, v, un, vn) -> None:
        settled = self.settled
        settled |= vn == 0.0
        frozen = (settled & (un.view(np.int64) == u.view(np.int64))
                  & (vn.view(np.int64) == v.view(np.int64)))
        n = np.count_nonzero(frozen)
        self.stepped = np.flatnonzero(~frozen) if n >= _SPLIT_MIN or n == u.size else None

    def _next(self, u, v, dB):
        lanes = self.stepped
        if lanes is None:
            return _stochastic_next(self.update, u, v, self.dt, dB, self.p)
        if not lanes.size:
            return u, v, None, None
        un, vn = u.copy(), v.copy()
        un[lanes], vn[lanes], events, failed = _stochastic_next(
            self.update, u[lanes], v[lanes], self.dt, dB[lanes], self.p)
        return un, vn, _spread(events, lanes, u.size), _spread(failed, lanes, u.size)


def _noise_rows(dW, n_paths: int, n_steps: int, dt: float,
                settled: np.ndarray | None = None):
    """The increment rows of a NoiseStream's time-major blocks, or of a
    row-major (n_paths, >= n_steps) array's columns. The input is checked
    here, before any draw, so a mismatched stream never forks a producer.
    A stream skips the draws of the paths flagged in settled (see
    NoiseStream._iter)."""
    if isinstance(dW, NoiseStream):
        _check_noise_fit(dW.n_paths, dW.n_steps, dW.dt, n_paths, n_steps, dt)
        blocks = dW._iter(settled)
    elif (isinstance(dW, np.ndarray) and dW.ndim == 2 and dW.shape[0] == n_paths
          and dW.shape[1] >= n_steps):
        b = NoiseStream._block_steps(n_paths, n_steps)
        blocks = (np.ascontiguousarray(dW.T[s:s + b]) for s in range(0, n_steps, b))
    else:
        raise ParameterError(f"dW must be a NoiseStream or a ({n_paths}, >= {n_steps}) "
                             f"array, got {getattr(dW, 'shape', type(dW).__name__)}")
    return (row for block in blocks for row in block)


def run_batch(scheme: Scheme, p: ModelParams | Sequence[ModelParams],
              u0: np.ndarray, v0: np.ndarray, horizon: float, dt: float,
              dW: np.ndarray | NoiseStream, record_stride: int = 1, *,
              outputs: Collection[str] = _OUTPUTS, recorder=None) -> BatchResult:
    """Advance many paths at once; path i uses dW[i], or column i of a stream.

    scheme is Euler-Maruyama or Milstein; RK4, which draws no noise, raises
    ParameterError. dW is a NoiseStream of n_paths paths at this dt and at
    least horizon/dt steps, or a row-major (n_paths, >= horizon/dt) array;
    other noise raises ParameterError before any draw.

    With one ModelParams, u0 and v0 are 1-D arrays of n_paths lanes. With
    a sequence of params sets (cells), they have shape (cells, n_paths):
    row c runs under p[c], and path i of every row is driven by the same
    increment row dW[i], so a whole parameter grid shares one time loop.

    outputs names the accumulators to keep, a subset of integral_v and
    max_total (both by default); one left out is skipped at every step and
    comes back as None. The records, the clamp counts and every kept field
    have the same bits whatever is left out.

    recorder, when given, takes each recorded row as the time loop reaches
    it (see _advance for its open and put), and U, V and clamped come
    back as None; without one, every row is kept in U, V and clamped.

    Aggregation-free: every per-path quantity is computed independently and
    elementwise, so results do not depend on which paths or cells share a
    batch. A single-cell run on a NoiseStream draws no noise for the lanes
    whose labour force has died out (v == 0) and skips those that no
    longer move (see _Lanes), with the same bits. A failing single-cell
    run raises IntegrationError; a multi-cell run records in errors what a
    run of the failed row alone would raise, parks the row at (0, 0) and
    runs the other rows on.
    """
    _check_stochastic(scheme)
    n_steps = _resolve_steps(horizon, dt)
    _check_stride(n_steps, record_stride)
    _check_outputs(outputs)
    u = np.asarray(u0, dtype=float)
    v = np.asarray(v0, dtype=float)
    cells = ()
    if not isinstance(p, ModelParams):
        p = tuple(p)
        cells = (len(p),)
    if (u.shape != v.shape or u.ndim != len(cells) + 1 or u.shape[:-1] != cells
            or u.size == 0):
        raise ParameterError("u0 and v0 must be 1-D arrays of equal, nonzero "
                             "length, or of shape (cells >= 1, n_paths >= 1) for "
                             "a nonempty sequence of params")
    _check_initial(u, v)
    n_paths = u.shape[-1]
    coeffs = _stack_params(p, n_paths) if cells else p
    errors: list[str | None] = [None] * (cells[0] if cells else 1)

    def fail(k, bad, un, vn):
        """Record each newly failed row's error (its first bad path) and park
        the row at (0, 0), a fixed point of every scheme."""
        for c, (b, xu, xv) in enumerate(zip(*map(np.atleast_2d, (bad, un, vn)))):
            if errors[c] is None and b.any():
                errors[c] = (f"path {int(np.argmax(b))}: state went non-finite at "
                             f"t={(k - 1) * dt}; reduce the step size")
                if not cells:
                    raise IntegrationError(errors[c])
                xu[:] = xv[:] = 0.0

    # multi-cell runs keep the plain step, and so do runs on user matrices
    # (an inf or NaN increment on a settled lane must still fail the run)
    # and at a dt where dB*dB, |dB| < 14*sqrt(dt), may overflow
    update = _STOCHASTIC_NEXT[scheme]
    lanes = (_Lanes(update, coeffs, dt, dW.block, u, v)
             if not cells and isinstance(dW, NoiseStream)
             and math.isfinite(200.0 * dt) else None)
    noise = _noise_rows(dW, n_paths, n_steps, dt,
                        None if lanes is None else lanes.settled)

    def step(k, u, v, dB):
        if lanes is None:
            un, vn, events, failed = _stochastic_next(update, u, v, dt, dB, coeffs)
        else:
            un, vn, events, failed = lanes.step(k, u, v, dB)
        if failed is not None:
            fail(k, failed, un, vn)
        if k == n_steps:
            # at the last step, before its row is recorded; a +inf from an
            # earlier step fails the next as NaN or -inf
            fail(k, ~(np.isfinite(un) & np.isfinite(vn)), un, vn)
        return un, vn, events

    records = _Records() if recorder is None else recorder
    try:
        times, _, _, *rest = _advance(step, u, v, dt, n_steps, record_stride,
                                      noise, records, outputs)
    finally:
        # a forked noise producer ends here, not when a traceback that
        # holds this frame is dropped
        noise.close()
    U, V, clamped = ((records.U, records.V, records.clamped) if recorder is None
                     else (None, None, None))
    return BatchResult(times, U, V, clamped, *rest, errors=tuple(errors),
                       scheme=scheme, params=p)


def _coupled_terminals(scheme: Scheme, p: ModelParams, u0: np.ndarray,
                       v0: np.ndarray, dt: float, dW: NoiseStream, n_steps: int,
                       levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (u, v) of levels + 1 coupled runs in one pass over dW's rows.

    Row L of each result is the terminal state of run_batch at step
    dt * 2^L driven by the increments summed in groups of 2^L rows, bit
    for bit: each group's sum is a copy of its first row, then += left to
    right (the order of the tests' reference group_sums), built while the
    rows stream by, and level L steps whenever its group is complete. The
    levels that complete on a row always form a prefix 0..c-1 of the level
    axis, so they advance together as one (c, n_paths) lane array. Raises
    IntegrationError when a run goes non-finite.
    """
    _check_initial(u0, v0)
    n = levels + 1
    u = np.tile(u0, (n, 1))
    v = np.tile(v0, (n, 1))
    dts = np.array([[dt * 2 ** level] for level in range(n)])
    sums = np.empty_like(u)
    done = n  # levels whose group completed on the previous row restart here
    update = _STOCHASTIC_NEXT[scheme]
    for k, row in zip(range(1, n_steps + 1), _noise_rows(dW, len(u0), n_steps, dt)):
        sums[:done] = row
        sums[done:] += row
        done = min(n, (k & -k).bit_length())  # levels L with 2^L dividing k
        u[:done], v[:done], _, failed = _stochastic_next(
            update, u[:done], v[:done], dts[:done], sums[:done], p)
        if failed is not None:
            break
    # a +inf from the last row; one from an earlier row fails the next
    if failed is not None or not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise IntegrationError(f"a coupled run went non-finite by t={k * dt}; "
                               "reduce the step size")
    return u, v

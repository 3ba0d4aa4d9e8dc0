"""Fixed-step integrators: classical RK4 for the noise-free system,
Euler-Maruyama and Milstein for the noisy one.

All three schemes share the same drift/diffusion evaluations from
:mod:`jobmarket.model`, and the stochastic updates apply the matching
noise term with opposite signs, so the step-to-step change of u + v is
the pure drift balance dt*(r*u*(1 - u/K) - d*v) up to a few ulps,
independent of the Brownian increment.

Milstein adds the derivative-of-diffusion correction for the single-noise
system with b = (-sigma*u*v, +sigma*u*v):

    corr_u = 0.5 * sigma^2 * u*v*(v - u) * (dB^2 - dt) = -corr_v

obtained from (b . grad) b; the two corrections are one product negated
and cancel exactly.

Positivity policy: the exact solution stays positive but a discrete step
can overshoot. A component that lands at or below -DBL_MIN is clamped to
zero and the event is logged; magnitudes inside the subnormal range
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
from dataclasses import dataclass, field, fields
from enum import Enum
from types import SimpleNamespace
from typing import Collection, Sequence, TextIO

import numpy as np

from .brownian import BrownianPath, NoiseStream
from .errors import IntegrationError, ParameterError
from .model import ModelParams, State, drift

__all__ = [
    "Scheme",
    "Trajectory",
    "BatchResult",
    "step_rk4",
    "step_em",
    "step_milstein",
    "simulate",
    "run_batch",
]

# Smallest positive normal double; below this, gradual underflow arithmetic
# can produce sign noise, so compartment values are flushed to exact zero.
_TINY = sys.float_info.min

_RK4_CLAMP_REL = 1e-12

_NON_FINITE = "state went non-finite at t={t}"

# the per-path accumulators a run_batch caller may ask for
_OUTPUTS = frozenset({"integral_u", "integral_v", "max_total"})


class Scheme(Enum):
    RK4 = "rk4"
    EULER_MARUYAMA = "euler_maruyama"
    MILSTEIN = "milstein"

    @property
    def is_stochastic(self) -> bool:
        return self is not Scheme.RK4

    @classmethod
    def parse(cls, name: str) -> "Scheme":
        for scheme in cls:
            if scheme.value == name:
                return scheme
        raise ParameterError(
            f"unknown scheme {name!r}; expected one of "
            f"{[s.value for s in cls]}"
        )


# ---------------------------------------------------------------------------
# shared update expressions (work elementwise on floats and on arrays)

def _em_next(u, v, dt, dB, p: ModelParams):
    du, dv = drift((u, v), p)
    noise = (p.sigma * u * v) * dB
    return u + du * dt - noise, v + dv * dt + noise


def _milstein_corr(u, v, dt, dB, p: ModelParams):
    return 0.5 * p.sigma * p.sigma * u * v * (v - u) * (dB * dB - dt)


def _milstein_next(u, v, dt, dB, p: ModelParams):
    un, vn = _em_next(u, v, dt, dB, p)
    corr = _milstein_corr(u, v, dt, dB, p)
    return un + corr, vn - corr


def _rk4_next(u, v, dt, p: ModelParams):
    k1u, k1v = drift((u, v), p)
    k2u, k2v = drift((u + 0.5 * dt * k1u, v + 0.5 * dt * k1v), p)
    k3u, k3v = drift((u + 0.5 * dt * k2u, v + 0.5 * dt * k2v), p)
    k4u, k4v = drift((u + dt * k3u, v + dt * k3v), p)
    sixth = dt / 6.0
    return (u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + sixth * (k1v + 2.0 * (k2v + k3v) + k4v))


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


def step_rk4(s: State, dt: float, p: ModelParams) -> State:
    """One classical fourth-order Runge-Kutta step of the noise-free system.

    Raises IntegrationError when a component goes negative beyond rounding
    scale (1e-12 of the state magnitude), or NaN: that is a step-size
    problem, not something to silently repair.
    """
    if not dt > 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    u, v = float(s[0]), float(s[1])
    un, vn = _rk4_next(u, v, dt, p)
    scale = max(1.0, abs(u) + abs(v))
    out = []
    for x in (un, vn):
        if not x >= 0.0:
            if -x < _RK4_CLAMP_REL * scale:
                x = 0.0
            else:
                raise IntegrationError(
                    f"RK4 step from ({u}, {v}) with dt={dt} went negative "
                    f"({x}); reduce the step size"
                )
        out.append(x)
    return State(out[0], out[1])


def step_em(s: State, dt: float, dB: float, p: ModelParams) -> tuple[State, bool]:
    """One Euler-Maruyama step; returns (new state, clamped flag), or
    raises IntegrationError when a component goes NaN or -inf."""
    if not dt > 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    un, vn = _em_next(float(s[0]), float(s[1]), dt, dB, p)
    un, cu = _clamp_scalar(un)
    vn, cv = _clamp_scalar(vn)
    return State(un, vn), cu or cv


def step_milstein(s: State, dt: float, dB: float, p: ModelParams) -> tuple[State, bool]:
    """One Milstein step; returns (new state, clamped flag).

    Coincides with step_em when dB^2 == dt or u == v, where the
    correction factor vanishes. Raises IntegrationError when a component
    goes NaN or -inf.
    """
    if not dt > 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    un, vn = _milstein_next(float(s[0]), float(s[1]), dt, dB, p)
    un, cu = _clamp_scalar(un)
    vn, cv = _clamp_scalar(vn)
    return State(un, vn), cu or cv


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    """A recorded solution path on a uniform time grid.

    times/u/v/clamped are aligned arrays; ``clamped[i]`` means at least one
    positivity clamp happened in the steps since the previous recorded row.
    clamp_count and clamp_times log every event at full step resolution,
    independent of the recording stride, as do the trapezoidal integrals
    integral_u/integral_v (populated by simulate, None on hand-built
    trajectories).
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    clamped: np.ndarray
    scheme: Scheme | None = None
    params: ModelParams | None = None
    clamp_count: int = 0
    clamp_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    seed: int | None = None
    path_index: int | None = None
    integral_u: float | None = None
    integral_v: float | None = None
    max_total: float | None = None

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def state(self, i: int) -> State:
        return State(float(self.u[i]), float(self.v[i]))

    @property
    def terminal(self) -> State:
        return self.state(-1)

    def to_csv(self, fp: TextIO) -> None:
        """Write rows t,u,v,clamped with round-trip decimal formatting."""
        fp.write("t,u,v,clamped\n")
        flags = self.clamped
        for i in range(self.n_points):
            fp.write(f"{float(self.times[i])!r},{float(self.u[i])!r},"
                     f"{float(self.v[i])!r},{1 if flags[i] else 0}\n")


def _resolve_steps(horizon: float, dt: float) -> int:
    if not (isinstance(dt, (int, float)) and dt > 0.0 and np.isfinite(dt)):
        raise ParameterError(f"dt must be a positive finite number, got {dt!r}")
    if not (isinstance(horizon, (int, float)) and horizon > 0.0 and np.isfinite(horizon)):
        raise ParameterError(f"horizon must be a positive finite number, got {horizon!r}")
    n_steps = round(horizon / dt)
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ParameterError(
            f"horizon {horizon} is not a positive integer multiple of dt {dt}"
        )
    return n_steps


def _check_stride(n_steps: int, record_stride: int) -> None:
    if (isinstance(record_stride, bool) or not isinstance(record_stride, int)
            or record_stride < 1):
        raise ParameterError(
            f"record_stride must be a positive integer, got {record_stride!r}")
    if n_steps % record_stride != 0:
        raise ParameterError(
            f"record_stride {record_stride} must divide the step count {n_steps} "
            "so the recorded grid keeps a constant spacing"
        )


def _advance(step, u, v, dt: float, n_steps: int, record_stride: int, noise,
             outputs: Collection[str] = _OUTPUTS):
    """The time loop shared by simulate and run_batch.

    u and v are Python floats (one path) or lane arrays. Each step calls
    step(k, u, v, dB) -> (u, v, clamp events), with dB taken from noise;
    events of None mean that no lane clamped. Clamp counts, and those of
    the trapezoid integrals and the running max of u + v named in
    outputs, are kept at full step resolution; an accumulator not named
    costs nothing per step and is returned as None. Every
    record_stride-th state is recorded, and a recorded row is flagged
    when a clamp happened since the previous recorded row. Returns the
    fields of a BatchResult, in order.
    """
    lanes = np.shape(u)  # () for one scalar path
    # on floats, builtin max() costs about 0.25 us a step more than this
    peak = np.maximum if lanes else (lambda a, b: b if b > a else a)
    n_rec = n_steps // record_stride + 1
    U = np.empty(lanes + (n_rec,))
    V = np.empty(lanes + (n_rec,))
    flags = np.zeros(lanes + (n_rec,), dtype=bool)
    # time-major views: row i of each is recorded column i of the output
    rows_u, rows_v, rows_flag = (np.moveaxis(a, -1, 0) for a in (U, V, flags))
    rows_u[0] = u
    rows_v[0] = v
    counts = last = np.zeros(lanes, dtype=np.int64) if lanes else 0
    integral_u = (np.zeros(lanes) if lanes else 0.0) if "integral_u" in outputs else None
    integral_v = (np.zeros(lanes) if lanes else 0.0) if "integral_v" in outputs else None
    max_total = u + v if "max_total" in outputs else None
    row = 1
    for k, dB in zip(range(1, n_steps + 1), noise):
        un, vn, events = step(k, u, v, dB)
        if events is not None:
            counts = counts + events
        if integral_u is not None:
            integral_u += 0.5 * (u + un) * dt
        if integral_v is not None:
            integral_v += 0.5 * (v + vn) * dt
        u, v = un, vn
        if max_total is not None:
            max_total = peak(max_total, u + v)
        if k % record_stride == 0:
            rows_u[row] = u
            rows_v[row] = v
            rows_flag[row] = counts != last
            last = counts
            row += 1
    times = np.arange(0, n_steps + 1, record_stride) * dt
    return times, U, V, flags, counts, integral_u, integral_v, max_total


def simulate(scheme: Scheme, p: ModelParams, x0: State, horizon: float,
             dt: float, path: BrownianPath | None = None,
             record_stride: int = 1) -> Trajectory:
    """Advance x0 over [0, horizon] and record every record_stride-th state.

    Stochastic schemes require ``path`` covering at least horizon/dt steps
    at the same dt; RK4 takes no driving path. Time averages are
    accumulated at full resolution regardless of the recording stride.
    A failing step raises IntegrationError, prefixed with its start time.
    """
    n_steps = _resolve_steps(horizon, dt)
    _check_stride(n_steps, record_stride)
    u, v = float(x0[0]), float(x0[1])
    _check_initial(u, v)

    clamp_times: list[float] = []
    if scheme.is_stochastic:
        if path is None:
            raise ParameterError(f"scheme {scheme.value} requires a Brownian path")
        if abs(path.dt - dt) > 1e-12 * dt:
            raise ParameterError(
                f"path dt {path.dt} does not match requested dt {dt}")
        if path.n_steps < n_steps:
            raise ParameterError(
                f"path covers {path.n_steps} steps, {n_steps} needed")
        noise = path.increments[:n_steps].tolist()
        stepper = step_em if scheme is Scheme.EULER_MARUYAMA else step_milstein
    else:
        if path is not None:
            raise ParameterError("deterministic RK4 takes no driving path")
        noise = itertools.repeat(None)

        def stepper(s, dt, _, p):
            return step_rk4(s, dt, p), None

    def step(k, u, v, dB):
        try:
            (un, vn), clamped = stepper(State(u, v), dt, dB, p)
        except IntegrationError as exc:
            raise IntegrationError(f"at t={(k - 1) * dt}: {exc}") from None
        if clamped:
            clamp_times.append(k * dt)
        return un, vn, clamped

    times, U, V, flags, count, integral_u, integral_v, max_total = _advance(
        step, u, v, dt, n_steps, record_stride, noise)
    for x in (U[-1], V[-1]):
        if not math.isfinite(x):  # a +inf from the last step; earlier ones fail the next
            raise IntegrationError(f"at t={(n_steps - 1) * dt}: state went "
                                   f"non-finite ({x}); reduce the step size")
    return Trajectory(
        times=times, u=U, v=V, clamped=flags, scheme=scheme, params=p,
        clamp_count=count, clamp_times=np.array(clamp_times),
        seed=path.seed if path is not None else None,
        path_index=path.path_index if path is not None else None,
        integral_u=integral_u, integral_v=integral_v, max_total=max_total,
    )


# ---------------------------------------------------------------------------
# vectorised multi-path engine

@dataclass
class BatchResult:
    """Per-path outputs of a vectorised run on a shared time grid.

    U and V have shape (n_paths, n_recorded), or (cells, n_paths,
    n_recorded) for a multi-cell run; the per-path arrays drop the last
    axis. Each path's column sequence is bit-identical to a scalar
    simulate() of that path alone, unless errors records a failure of its
    row, after which the row's values mean nothing.
    """

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    clamped: np.ndarray          # lane shape + (n_recorded,) bool
    clamp_counts: np.ndarray     # lane shape, int
    # lane shape; None when the run's outputs left them out
    integral_u: np.ndarray | None  # full-resolution trapezoids
    integral_v: np.ndarray | None
    max_total: np.ndarray | None   # running max of u + v
    errors: tuple[str | None, ...]  # per row: None, or its first failure
    scheme: Scheme | None = None
    params: ModelParams | tuple[ModelParams, ...] | None = None

    @property
    def n_paths(self) -> int:
        """Number of lanes (cells times paths for a multi-cell run)."""
        return self.clamp_counts.size

    @property
    def terminal_u(self) -> np.ndarray:
        return self.U[..., -1]

    @property
    def terminal_v(self) -> np.ndarray:
        return self.V[..., -1]

    def time_average_v(self) -> np.ndarray:
        return self.integral_v / float(self.times[-1])

    def cell(self, c: int) -> "BatchResult":
        """Row c of a multi-cell run as a single-cell result of contiguous
        copies, laid out exactly as a run of that cell alone; a field the
        run left out stays None."""
        def row(a):
            return None if a is None else a[c].copy()

        return BatchResult(
            times=self.times, U=row(self.U), V=row(self.V),
            clamped=row(self.clamped), clamp_counts=row(self.clamp_counts),
            integral_u=row(self.integral_u), integral_v=row(self.integral_v),
            max_total=row(self.max_total), errors=self.errors[c:c + 1],
            scheme=self.scheme, params=self.params[c])


def _stack_params(ps: tuple[ModelParams, ...]) -> SimpleNamespace:
    """The constants of several ModelParams as (cells, 1) columns, which
    broadcast row c of a (cells, n_paths) lane array against ps[c]."""
    return SimpleNamespace(**{f.name: np.array([[getattr(q, f.name)] for q in ps])
                              for f in fields(ModelParams)})


def _clamp_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None,
                                          np.ndarray | None]:
    """np.where(x >= _TINY, x, 0.0), the clamp events (finite lanes at or
    below -_TINY) and the failures (NaN or -inf lanes); events and
    failures are None when there are none.

    One min() picks the tier: every lane normal or +inf needs no pass;
    lanes only as far below as the subnormals (an extinct lane sits at
    exact 0) are flushed without an event test; anything lower, or a NaN
    minimum, takes the full pass, and only a NaN or -inf minimum looks
    for failures. A +inf lane fails on the next step, as NaN or -inf.
    """
    lo = np.minimum.reduce(x, None)  # x.min() without its Python wrapper
    if lo >= _TINY:
        return x, None, None
    clamped = np.where(x >= _TINY, x, 0.0)
    if lo > -_TINY:
        return clamped, None, None
    events, failed = x <= -_TINY, None
    if not lo > -np.inf:
        failed = ~(x > -np.inf)
        events &= ~failed
    return clamped, events if events.any() else None, failed


def _union(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a | b of two lane masks, where None stands for no lane set."""
    return b if a is None else a if b is None else a | b


def _stochastic_next(scheme: Scheme, u, v, dt, dB, coeffs):
    """One clamped Euler-Maruyama or Milstein step of lane arrays: (u, v,
    clamp events, failed lanes), the masks None when no lane clamped or
    failed. dt may be a column that gives each row its own step."""
    if scheme is Scheme.EULER_MARUYAMA:
        un, vn = _em_next(u, v, dt, dB, coeffs)
    else:
        un, vn = _milstein_next(u, v, dt, dB, coeffs)
    un, ev_u, bad_u = _clamp_array(un)
    vn, ev_v, bad_v = _clamp_array(vn)
    return un, vn, _union(ev_u, ev_v), _union(bad_u, bad_v)


def _check_initial(u: np.ndarray, v: np.ndarray) -> None:
    if np.any(u < 0.0) or np.any(v < 0.0) or not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ParameterError("initial states must be finite and nonnegative")


def _noise_rows(dW, n_paths: int, n_steps: int):
    """Increment rows from a stream's time-major blocks, or a row-major array's."""
    blocks = dW
    if isinstance(dW, np.ndarray) and dW.ndim == 2:
        b = NoiseStream._block_steps(n_paths, n_steps)
        blocks = (np.ascontiguousarray(dW.T[s:s + b]) for s in range(0, n_steps, b))
    elif isinstance(dW, np.ndarray) or not hasattr(dW, "nbytes"):
        raise ParameterError(f"dW must be a ({n_paths}, >= {n_steps}) array or a stream with nbytes")
    for block in blocks:
        if not isinstance(block, np.ndarray) or block.shape[1:] != (n_paths,):
            raise ParameterError(f"dW must hold {n_paths} lanes per step, got {np.shape(block)}")
        yield from block
    raise ParameterError(f"dW covers fewer than the {n_steps} steps needed")


def run_batch(scheme: Scheme, p: ModelParams | Sequence[ModelParams],
              u0: np.ndarray, v0: np.ndarray, horizon: float, dt: float,
              dW: np.ndarray | NoiseStream | None, record_stride: int = 1, *,
              outputs: Collection[str] = _OUTPUTS) -> BatchResult:
    """Advance many paths at once; path i uses dW[i], or column i of a stream.

    With one ModelParams, u0 and v0 are 1-D arrays of n_paths lanes. With
    a sequence of params sets (cells), they have shape (cells, n_paths):
    row c runs under p[c], and path i of every row is driven by the same
    increment row dW[i], so a whole parameter grid shares one time loop.

    outputs names the accumulators to keep, a subset of integral_u,
    integral_v and max_total (all three by default); the others are
    skipped at every step and come back as None. The records, the clamp
    counts and every kept field have the same bits whatever is left out.

    Aggregation-free: every per-path quantity is computed independently and
    elementwise, so results do not depend on which paths or cells share a
    batch. A failing single-cell run raises IntegrationError; a multi-cell
    run records in errors what a run of the failed row alone would raise,
    parks the row at (0, 0) and runs the other rows on.
    """
    n_steps = _resolve_steps(horizon, dt)
    _check_stride(n_steps, record_stride)
    unknown = set(outputs) - _OUTPUTS
    if unknown:
        raise ParameterError(f"unknown outputs {sorted(unknown)}; expected a "
                             f"subset of {sorted(_OUTPUTS)}")
    u = np.asarray(u0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if isinstance(p, ModelParams):
        coeffs, cells = p, ()
    else:
        p = tuple(p)
        coeffs, cells = _stack_params(p), (len(p),)
    if u.shape != v.shape or u.ndim != len(cells) + 1 or u.shape[:-1] != cells:
        raise ParameterError("u0 and v0 must be 1-D arrays of equal length, "
                             "or of shape (cells, n_paths) for a sequence "
                             "of params")
    _check_initial(u, v)
    n_paths = u.shape[-1]
    errors: list[str | None] = [None] * (cells[0] if cells else 1)

    def fail(k, bad_u, bad_v, un, vn, what):
        """Record each newly failed row's error (its first bad path in u, else
        in v) and park the row at (0, 0), a fixed point of every scheme."""
        for c, (bu, bv, xu, xv) in enumerate(zip(*map(np.atleast_2d, (bad_u, bad_v, un, vn)))):
            if errors[c] is None and (bu.any() or bv.any()):
                x, bad = (xu, bu) if bu.any() else (xv, bv)
                i = int(np.argmax(bad))
                errors[c] = f"path {i}: {what.format(t=(k - 1) * dt, x=x[i])}; reduce the step size"
                if not cells:
                    raise IntegrationError(errors[c])
                xu[:] = xv[:] = 0.0

    if scheme.is_stochastic:
        noise = _noise_rows(dW, n_paths, n_steps)

        def step(k, u, v, dB):
            un, vn, events, failed = _stochastic_next(scheme, u, v, dt, dB, coeffs)
            if failed is not None:
                fail(k, failed, failed, un, vn, _NON_FINITE)
            return un, vn, events
    else:
        if dW is not None:
            raise ParameterError("deterministic RK4 takes no increments")
        noise = itertools.repeat(None)

        def step(k, u, v, _):
            un, vn = _rk4_next(u, v, dt, coeffs)
            floor = -_RK4_CLAMP_REL * np.maximum(1.0, np.abs(u) + np.abs(v))
            ok_u = un >= floor  # False on NaN too
            ok_v = vn >= floor
            if not (ok_u.all() and ok_v.all()):
                fail(k, ~ok_u, ~ok_v, un, vn, "RK4 went negative at t={t} (value {x})")
            return np.where(un < 0.0, 0.0, un), np.where(vn < 0.0, 0.0, vn), None

    times, U, V, *rest = _advance(step, u, v, dt, n_steps, record_stride, noise,
                                  outputs)
    # a +inf from the last step; one from an earlier step fails the next
    fail(n_steps, ~np.isfinite(U[..., -1]), ~np.isfinite(V[..., -1]), U[..., -1],
         V[..., -1], _NON_FINITE)
    return BatchResult(times, U, V, *rest, errors=tuple(errors), scheme=scheme,
                       params=p)


def _coupled_terminals(scheme: Scheme, p: ModelParams, u0: np.ndarray,
                       v0: np.ndarray, dt: float, dW: NoiseStream, n_steps: int,
                       levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (u, v) of levels + 1 coupled runs in one pass over dW's rows.

    Row L of each result is the terminal state of run_batch at step
    dt * 2^L driven by group_sums(increments, 2^L), bit for bit: each
    group's sum is built as group_sums builds it (a copy of its first
    row, then += left to right) while the rows stream by, and level L
    steps whenever its group of 2^L rows is complete. The levels that
    complete on a row always form a prefix 0..c-1 of the level axis, so
    they advance together as one (c, n_paths) lane array. Raises
    IntegrationError when a run goes non-finite.
    """
    _check_initial(u0, v0)
    n = levels + 1
    u = np.tile(u0, (n, 1))
    v = np.tile(v0, (n, 1))
    dts = np.array([[dt * 2 ** level] for level in range(n)])
    sums = np.empty_like(u)
    done = n  # levels whose group completed on the previous row restart here
    for k, row in zip(range(1, n_steps + 1), _noise_rows(dW, len(u0), n_steps)):
        sums[:done] = row
        sums[done:] += row
        done = min(n, (k & -k).bit_length())  # levels L with 2^L dividing k
        u[:done], v[:done], _, failed = _stochastic_next(
            scheme, u[:done], v[:done], dts[:done], sums[:done], p)
        if failed is not None:
            break
    # a +inf from the last row; one from an earlier row fails the next
    if failed is not None or not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise IntegrationError(f"a coupled run went non-finite by t={k * dt}; "
                               "reduce the step size")
    return u, v

"""The type and range rules of a run's inputs, and the scheme names.

Each rule is written once, here, with its message. brownian, integrators
and analysis apply them to their own arguments, and cli.parse_config
applies the same ones to a config, so a config passes exactly when the
run it describes would. The module imports no numpy: the CLI loads and
checks a config, and answers thresholds, without it.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .errors import ParameterError

# the per-path accumulators that simulate and run_batch may keep
_OUTPUTS = frozenset({"integral_v", "max_total"})


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


def _is_int(x) -> bool:
    """True for an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_int(name: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _as_finite_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _positive_finite(name: str, x) -> float:
    """x as a float when it is an int or float, not a bool, in (0, DBL_MAX]:
    the rule for dt and horizon. NaN, inf and ints past a double fail."""
    if not (isinstance(x, (int, float)) and not isinstance(x, bool)
            and 0.0 < x <= sys.float_info.max):
        raise ParameterError(f"{name} must be a positive finite number, got {x!r}")
    return float(x)


def _check_key(seed, path_index) -> None:
    """The key (seed, path_index) of one noise stream."""
    if not _is_int(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must fit in 64 bits, got {seed}")
    if not _is_int(path_index):
        raise ParameterError(f"path_index must be an integer, got {path_index!r}")
    if not 0 <= path_index < 2**32:
        raise ParameterError(f"path_index must fit in 32 bits, got {path_index}")


def _check_stream(seed, path_index, dt, n_steps) -> float:
    """Stream (seed, path_index) over n_steps steps of dt; returns dt as a float."""
    _check_key(seed, path_index)
    _positive_int("n_steps", n_steps)
    return _positive_finite("dt", dt)


def _check_paths(seed, n_paths) -> None:
    """The seed and path count of a noisy run, whose paths are the streams
    (seed, 0) .. (seed, n_paths - 1)."""
    _positive_int("n_paths", n_paths)
    _check_key(seed, n_paths - 1)


def _check_noise_fit(noise_paths: int, noise_steps: int, noise_dt: float,
                     n_paths: int, n_steps: int, dt: float) -> None:
    """Noise of noise_paths paths x noise_steps increments at noise_dt can
    drive n_paths paths x n_steps steps of dt: the path counts agree, the
    noise covers the steps, and its dt is dt to within 1e-12 relative."""
    if (noise_paths != n_paths or noise_steps < n_steps
            or abs(noise_dt - dt) > 1e-12 * dt):
        raise ParameterError(
            f"noise of {noise_paths} path(s) x {noise_steps} steps at dt {noise_dt} "
            f"does not fit {n_paths} path(s) x {n_steps} steps at dt {dt}")


def _check_stochastic(scheme: Scheme) -> None:
    """A scheme for a run that draws noise: every run but simulate's."""
    if not scheme.is_stochastic:
        raise ParameterError(f"scheme {scheme.value} draws no noise and runs only in "
                             "simulate; runs of many paths take euler_maruyama or milstein")


def _check_coupling(scheme: Scheme, levels, n_fine: int) -> None:
    """A strong-order run of scheme over n_fine fine steps, coarsened
    levels times by halving the step count."""
    _check_stochastic(scheme)
    if not _is_int(levels) or levels < 3:
        raise ParameterError(f"levels must be an integer >= 3, got {levels!r}")
    if n_fine % (2 ** levels) != 0:
        raise ParameterError(
            f"dt_fine * 2^levels must divide the horizon: {n_fine} fine steps "
            f"are not a multiple of {2 ** levels}")


def _check_outputs(outputs) -> None:
    """The accumulators a run keeps: a subset of _OUTPUTS."""
    unknown = set(outputs) - _OUTPUTS
    if unknown:
        raise ParameterError(f"unknown outputs {sorted(unknown)}; expected a "
                             f"subset of {sorted(_OUTPUTS)}")


def _resolve_steps(horizon, dt) -> int:
    _positive_finite("dt", dt)
    _positive_finite("horizon", horizon)
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise ParameterError(f"horizon {horizon} / dt {dt} is not a finite step count")
    n_steps = round(ratio)
    if n_steps > sys.maxsize:  # numpy's index type, intp, is Py_ssize_t
        raise ParameterError(f"horizon {horizon} / dt {dt} is {n_steps} steps, "
                             "more than an array can index")
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ParameterError(
            f"horizon {horizon} is not a positive integer multiple of dt {dt}"
        )
    return n_steps


def _check_stride(n_steps: int, record_stride) -> None:
    _positive_int("record_stride", record_stride)
    if n_steps % record_stride != 0:
        raise ParameterError(
            f"record_stride {record_stride} must divide the step count {n_steps} "
            "so the recorded grid keeps a constant spacing"
        )


def _values(a):
    """A float as a tuple of one, or a lane array's values as Python floats,
    read one at a time through a memoryview: a list of them all, from
    tolist(), would grow the peak RSS by about 256 KB at 4000 lanes."""
    return memoryview(a.ravel()) if hasattr(a, "ravel") else (a,)


def _check_initial(u, v) -> None:
    """u and v are floats, or lane arrays of any shape, under one rule: the
    comparison is False on NaN, on +-inf and on negatives, and True on -0.0.
    min() would not do, since min([1.0, nan]) is 1.0."""
    if not all(0.0 <= x < math.inf for a in (u, v) for x in _values(a)):
        raise ParameterError("initial states must be finite and nonnegative")

"""Reproducible Brownian increment streams and path coarsening.

Each path is an i.i.d. N(0, dt) increment sequence drawn from a stream
keyed by (seed, path_index) through numpy's SeedSequence, which mixes the
key cryptographically before seeding a PCG64 generator. Distinct keys give
independent streams, so an ensemble's paths can be produced in any order,
or concurrently, without changing a single bit of any path.

The sampling algorithm is pinned per release: PCG64 driven standard
normals (numpy's ziggurat) scaled by sqrt(dt). Regenerating with the same
(seed, path_index, dt, n_steps) is bit-identical, also through a NoiseStream.

Coarsening sums consecutive increments in fixed left-to-right order; it is
the device that lets one fine path drive several step sizes in coupled
strong-convergence experiments.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import ParameterError

__all__ = ["BrownianPath", "NoiseStream", "generate", "coarsen", "save_path", "load_path"]

_MAGIC = b"BPATH1\x00\x00"
_HEADER = struct.Struct("<8sdIQI")  # magic, dt, n_steps, seed, path_index
assert _HEADER.size == 32

_BLOCK_BYTES = 16_000_000  # noise resident per stream: row buffer plus block
_BLOCK_STEPS = 4096  # so a narrow batch does not buffer the whole horizon


@dataclass(frozen=True)
class BrownianPath:
    """An increment sequence with fixed step size and seed provenance.

    The cumulative sum of ``increments`` defines B with B(0) = 0. For a
    coarsened path, (seed, path_index) identify the underlying fine
    stream; only freshly generated paths regenerate from their key.
    """

    dt: float
    increments: np.ndarray
    seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    @property
    def horizon(self) -> float:
        """Covered time span, n_steps * dt."""
        return self.n_steps * self.dt


def _validate(seed: int, path_index: int, dt: float, n_steps: int) -> float:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must fit in 64 bits, got {seed}")
    if isinstance(path_index, bool) or not isinstance(path_index, int):
        raise ParameterError(f"path_index must be an integer, got {path_index!r}")
    if not 0 <= path_index < 2**32:
        raise ParameterError(f"path_index must fit in 32 bits, got {path_index}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 1:
        raise ParameterError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not (isinstance(dt, (int, float)) and not isinstance(dt, bool)) or not dt > 0.0 or not math.isfinite(dt):
        raise ParameterError(f"dt must be a positive finite number, got {dt!r}")
    return float(dt)


def _mapped(rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows, cols) float buffer in an anonymous mapping of
    its own, unmapped when freed. From malloc, megabyte buffers land in the
    heap once glibc has raised its mmap threshold, and the holes they leave
    made the peak RSS of identical runs jump by several MB at random."""
    buf = mmap.mmap(-1, rows * cols * 8)
    return np.frombuffer(buf, dtype=float).reshape(rows, cols)


def _blocks(seed: int, paths, dt: float, n_steps: int, block: int):
    """The pinned sampler: row j of each view holds stream (seed, paths[j])'s next increments."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in paths]
    rows = _mapped(len(rngs), block)
    for start in range(0, n_steps, block):
        b = min(block, n_steps - start)
        for rng, row in zip(rngs, rows[:, :b]):
            rng.standard_normal(out=row)
        rows[:, :b] *= math.sqrt(dt)
        yield rows[:, :b]


def generate(seed: int, path_index: int, dt: float, n_steps: int) -> BrownianPath:
    """Draw n_steps i.i.d. N(0, dt) increments from the (seed, path_index) stream.

    Deterministic: the same key always yields the same bits, independent of
    any other stream that has been drawn from.
    """
    dt = _validate(seed, path_index, dt, n_steps)
    increments = next(_blocks(seed, [path_index], dt, n_steps, n_steps))[0]  # one block
    increments.flags.writeable = False
    return BrownianPath(dt=dt, increments=increments, seed=seed,
                        path_index=path_index)


class NoiseStream:
    """Paths i < n_paths of generate(seed, i, dt, n_steps), bit for bit, as time-major
    (<= block, n_paths) views of one reused buffer; nbytes counts the noise bytes resident."""

    def __init__(self, seed: int, n_paths: int, dt: float, n_steps: int):
        if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
            raise ParameterError(f"n_paths must be a positive integer, got {n_paths!r}")
        self.dt = _validate(seed, n_paths - 1, dt, n_steps)
        self.seed, self.n_paths, self.n_steps = seed, n_paths, n_steps
        self.block = self._block_steps(n_paths, n_steps)
        self.nbytes = 16 * n_paths * self.block

    @staticmethod
    def _block_steps(n_paths: int, n_steps: int) -> int:
        return max(1, min(n_steps, _BLOCK_STEPS, _BLOCK_BYTES // (16 * n_paths)))

    def __iter__(self):
        out = _mapped(self.block, self.n_paths)
        for rows in _blocks(self.seed, range(self.n_paths), self.dt, self.n_steps, self.block):
            out[:rows.shape[1]] = rows.T
            yield out[:rows.shape[1]]


def group_sums(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` along the first (time) axis.

    Summation within each group is strictly left to right, the pinned
    order, regardless of factor, so each column matches a scalar running
    sum bit for bit.
    """
    n = increments.shape[0]
    if n % factor != 0:
        raise ParameterError(
            f"factor {factor} does not divide the number of increments {n}"
        )
    grouped = increments.reshape((n // factor, factor) + increments.shape[1:])
    acc = grouped[:, 0].copy()
    for j in range(1, factor):
        acc += grouped[:, j]
    return acc


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Merge every ``factor`` consecutive increments into one.

    The result has step factor*dt and the same total displacement; its
    cumulative path interpolates the fine one at shared grid times (up to
    the reassociation of floating-point addition, which the fixed
    summation order keeps reproducible). factor = 1 is a permitted no-op.
    """
    if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
        raise ParameterError(f"factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return path
    merged = group_sums(path.increments, factor)
    merged.flags.writeable = False
    return BrownianPath(dt=path.dt * factor, increments=merged,
                        seed=path.seed, path_index=path.path_index)


def save_path(path: BrownianPath, fp: BinaryIO) -> None:
    """Binary dump: 32-byte header then little-endian float64 increments."""
    fp.write(_HEADER.pack(_MAGIC, path.dt, path.n_steps, path.seed,
                          path.path_index))
    fp.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_path(fp: BinaryIO) -> BrownianPath:
    """Read a path written by save_path. Raises ParameterError on bad data."""
    header = fp.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ParameterError("truncated path file: short header")
    magic, dt, n_steps, seed, path_index = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ParameterError(f"not a Brownian path file (magic {magic!r})")
    raw = fp.read(8 * n_steps)
    if len(raw) != 8 * n_steps:
        raise ParameterError("truncated path file: fewer increments than header claims")
    increments = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    increments.flags.writeable = False
    return BrownianPath(dt=dt, increments=increments, seed=seed,
                        path_index=path_index)

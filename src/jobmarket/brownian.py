"""Reproducible Brownian increment streams.

Each path is an i.i.d. N(0, dt) increment sequence drawn from a stream
keyed by (seed, path_index) through numpy's SeedSequence, which hashes the
key into the state words of a PCG64 generator; the hash is computed for all
of a stream's paths at once, in uint32 array arithmetic, and gives
SeedSequence's words bit for bit. Distinct keys give independent streams,
so an ensemble's paths can be produced in any order, or concurrently,
without changing a single bit of any path. A large NoiseStream uses that:
a forked producer process draws the next block while the caller steps
through the current one, and hands each block over in quarter-block
chunks through a small shared ring.

The sampling algorithm is pinned per release: PCG64 driven standard
normals (numpy's ziggurat) scaled by sqrt(dt). Regenerating with the same
(seed, path_index, dt, n_steps) is bit-identical, also through a NoiseStream.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import mmap
import os
import signal
import warnings
from typing import NamedTuple

import numpy as np

from ._rules import _check_stream, _positive_int

__all__ = ["BrownianPath", "NoiseStream", "generate"]

_BLOCK_BYTES = 16_000_000  # noise resident per stream, over every buffer it keeps
_BLOCK_STEPS = 4096  # so a narrow batch does not buffer the whole horizon
_FORK_MIN = 2**20  # paths x steps from which a producer process pays back its fork
_CHUNKS = 4  # a block reaches the caller in this many chunks
_RING = _CHUNKS + 1  # chunk slots shared with a producer, at most: one block and a chunk


class BrownianPath(NamedTuple):
    """An increment sequence with fixed step size and seed provenance.

    The cumulative sum of ``increments`` defines B with B(0) = 0, and
    (seed, path_index) is the key it regenerates from.
    """

    dt: float
    increments: np.ndarray
    seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return len(self.increments)


def _mapped(*shape: int, dtype=float) -> np.ndarray:
    """A zero-filled array in an anonymous shared mapping of its own,
    unmapped when freed. A producer forked later shares it with the caller.
    From malloc, megabyte buffers land in the heap once glibc has raised
    its mmap threshold, and the holes they leave made the peak RSS of
    identical runs jump by several MB at random."""
    buf = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has fork but no affinity mask
        return os.cpu_count() or 1


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n values of a SeedSequence hash constant, as a column."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# SeedSequence's hash constants: the 17 values its pool hash steps through
# and the 9 of its state hash, the same for any entropy, and its mix weights
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Row k is SeedSequence's hashmix of x while its hash constant steps
    from consts[k] to consts[k + 1]."""
    x = (x ^ consts[:-1]) * consts[1:]
    return x ^ x >> 16


def _seed_words(seed: int, paths) -> np.ndarray:
    """Row j is SeedSequence([seed, paths[j]]).generate_state(4, np.uint64),
    hashed for every path at once. The entropy, the seed's little-endian
    32-bit words then paths[j], is at most 3 words in a pool of 4, and the
    hash constants step apart from the data. So each hash step is one ufunc
    over all paths, and so are the three that mix one pool word into the
    others and the eight that make the state words. uint32 arrays wrap
    silently on overflow, where numpy scalars would warn."""
    seed_words = [seed >> shift & 0xFFFFFFFF
                  for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((4, len(paths)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = paths
    pool = _hashmix(entropy, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        x = pool[dst] * _MIX_L - _hashmix(pool[src], _HASH_A[k:k + 4]) * _MIX_R
        pool[dst] = x ^ x >> 16
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    # uint64 word k is 32-bit words 2k and 2k + 1, little-endian, as in SeedSequence
    state = np.ascontiguousarray(state.T, dtype="<u4")
    return state.view("<u8").astype(np.uint64, copy=False)


def _blocks(seed: int, paths, n_steps: int, rows: np.ndarray,
            settled: np.ndarray | None = None):
    """The pinned sampler: each view of the (len(paths), block) buffer rows
    holds, in row j, the next standard normals of stream (seed, paths[j]);
    callers scale them by sqrt(dt). A row j whose settled flag is set when
    its block starts is not drawn: it keeps its last values (zeros in the
    first block), and stream paths[j] is never drawn from again, so flags
    may only ever be set."""
    # imported here: at module top it would load numpy.random into every CLI run
    from numpy.random.bit_generator import ISeedSequence

    class Keyed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    rngs = [np.random.default_rng(np.random.PCG64(Keyed(words)))
            for words in _seed_words(seed, paths)]
    block = rows.shape[1]
    for start in range(0, n_steps, block):
        view = rows[:, :min(block, n_steps - start)]
        skip = itertools.repeat(False) if settled is None else settled.tolist()
        for rng, row, done in zip(rngs, view, skip):
            if not done:
                rng.standard_normal(out=row)
        yield view


def generate(seed: int, path_index: int, dt: float, n_steps: int) -> BrownianPath:
    """Draw n_steps i.i.d. N(0, dt) increments from the (seed, path_index) stream.

    Deterministic: the same key always yields the same bits, independent of
    any other stream that has been drawn from.
    """
    dt = _check_stream(seed, path_index, dt, n_steps)
    increments = next(_blocks(seed, [path_index], n_steps, _mapped(1, n_steps)))[0]
    increments *= math.sqrt(dt)
    increments.flags.writeable = False
    return BrownianPath(dt=dt, increments=increments, seed=seed,
                        path_index=path_index)


def _cuts(n_steps: int, block: int, chunk: int):
    """(first column, width) of each chunk in stream order, as a stream of
    n_steps steps drawn block steps at a time is cut into chunks of at
    most chunk steps: the one rule by which _chunks cuts the drawn blocks
    and a producer's caller reads its ring. Lazy, so it holds no list
    that grows with n_steps."""
    for first in range(0, n_steps, block):
        width = min(block, n_steps - first)
        for start in range(0, width, chunk):
            yield start, min(chunk, width - start)


def _chunks(draws, cuts):
    """The views of draws cut by cuts; the next view is drawn once the
    last chunk of this one is taken."""
    for start, width in cuts:
        if start == 0:
            rows = next(draws)
        yield rows[:, start:start + width]


def _scaled(chunks, scale: float, out: np.ndarray):
    """Each chunk times scale, written time-major into out."""
    for part in chunks:
        yield np.multiply(part.T, scale, out=out[:part.shape[1]])


def _produced(chunks, scale: float, ring: np.ndarray, cuts):
    """The chunks times scale, time-major, from a forked producer; cuts
    are the chunks' (first column, width), as _cuts gives them.

    The producer writes chunk g into ring[g % len(ring)], once the caller
    has freed the chunk that slot held before. Pipes carry one byte per
    chunk each way: "ready" from the producer, "free" from the caller once
    it asks for the chunk after. The producer draws block j + 1 once it has
    written the last chunk of block j, which a ring of one block and one
    chunk allows once the caller has reached the last chunk of block j - 1:
    the caller has 1 1/4 blocks to step while the next one is drawn. The
    ring of a 1- or 2-step block holds two blocks, so there the producer
    waits until the caller steps block j - 1. The producer leaves by
    os._exit, so it never unwinds into the caller's frames or runs their
    cleanup, and it exits when the "free" pipe reaches EOF.
    """
    slots = len(ring)
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a multi-threaded process
            # (numpy's OpenBLAS starts a thread at import) may deadlock the
            # child. The producer touches no BLAS and no lock another thread
            # could hold: it draws from generators it owns and calls
            # os.read, os.write and os._exit.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): draw in process
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        yield from _scaled(chunks, scale, ring[0])
        return
    if pid == 0:
        code = 1
        try:
            gc.disable()  # no finalizer of an object inherited from the caller runs here
            os.close(ready_r)
            os.close(free_w)
            for g, part in enumerate(chunks):
                if g >= slots and not os.read(free_r, 1):
                    break  # the caller is gone
                np.multiply(part.T, scale, out=ring[g % slots, :part.shape[1]])
                os.write(ready_w, b"\0")
            code = 0
        finally:
            os._exit(code)
    os.close(ready_w)
    os.close(free_r)
    cuts, ahead = itertools.tee(cuts)
    ahead = itertools.islice(ahead, slots, None)  # chunk g + slots, at chunk g
    try:
        for g, (_, width) in enumerate(cuts):
            if not os.read(ready_r, 1):
                raise RuntimeError(f"the noise producer process {pid} ended "
                                   f"before chunk {g} of the stream")
            yield ring[g % slots, :width]
            if next(ahead, None) is not None:
                # a producer that died reaches EOF on the "ready" pipe, not here
                with contextlib.suppress(BrokenPipeError):
                    os.write(free_w, b"\0")
    finally:
        os.close(ready_r)
        os.close(free_w)
        # a producer forked later holds a copy of free_w, so EOF alone may
        # not end this one; the pid stays ours until it is reaped
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


class NoiseStream:
    """Paths i < n_paths of generate(seed, i, dt, n_steps), bit for bit, as time-major
    (<= ceil(block / _CHUNKS), n_paths) views of reused buffers; nbytes counts the
    noise bytes resident.

    The paths are drawn a block of steps at a time and handed over in
    _CHUNKS chunks per block. At n_paths * n_steps >= _FORK_MIN, where fork
    exists and two CPUs are usable, a forked producer process draws each
    block while the caller steps through the chunks before it; otherwise
    the blocks are drawn in process.
    """

    def __init__(self, seed: int, n_paths: int, dt: float, n_steps: int):
        _positive_int("n_paths", n_paths)
        self.dt = _check_stream(seed, n_paths - 1, dt, n_steps)
        self.seed, self.n_paths, self.n_steps = seed, n_paths, n_steps
        self._forks = (hasattr(os, "fork") and n_paths * n_steps >= _FORK_MIN
                       and _usable_cpus() >= 2)
        # rows resident: the row buffer the generators fill (a block), plus
        # one chunk in process or, forked, a ring of _RING chunks that spans
        # at most two blocks; a forked block takes a third of the cap, so
        # that all fit whenever one row of each does
        self.block = self._block_steps(n_paths, n_steps, 3 if self._forks else 2)
        self._chunk = -(-self.block // _CHUNKS)
        self._slots = min(_RING, 2 * self.block // self._chunk) if self._forks else 1
        self.nbytes = 8 * n_paths * (self.block + self._slots * self._chunk)

    @staticmethod
    def _block_steps(n_paths: int, n_steps: int, buffers: int = 2) -> int:
        return max(1, min(n_steps, _BLOCK_STEPS, _BLOCK_BYTES // (8 * buffers * n_paths)))

    def __iter__(self):
        return self._iter(None)

    def _iter(self, settled: np.ndarray | None):
        """The chunks, skipping the draws of each path whose byte in settled
        (a bool _mapped array) is set when its block is drawn: that path's
        columns then hold stale finite values. A block is drawn once the
        last chunk of the block before is taken, so in process the caller
        has stepped every block before it, while a forked producer may draw
        it when the caller still steps the block two before it (from that
        block's last chunk on, when a block has _CHUNKS chunks)."""
        draws = _blocks(self.seed, range(self.n_paths), self.n_steps,
                        _mapped(self.n_paths, self.block), settled)
        layout = (self.n_steps, self.block, self._chunk)
        chunks = _chunks(draws, _cuts(*layout))
        scale = math.sqrt(self.dt)
        ring = _mapped(self._slots, self._chunk, self.n_paths)
        if self._forks:
            yield from _produced(chunks, scale, ring, _cuts(*layout))
        else:
            yield from _scaled(chunks, scale, ring[0])

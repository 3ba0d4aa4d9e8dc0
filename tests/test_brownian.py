import contextlib
import errno
import math
import mmap
import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jobmarket import (BrownianPath, ModelParams, ParameterError, Scheme, generate,
                       run_batch)
from jobmarket import brownian, integrators
from jobmarket.brownian import NoiseStream

from coarsening import group_sums


# ---------------------------------------------------------------------------
# generation and determinism

def test_regeneration_is_bit_identical():
    a = generate(42, 0, 0.01, 1000)
    b = generate(42, 0, 0.01, 1000)
    assert np.array_equal(a.increments, b.increments)
    assert (a.dt, a.seed, a.path_index) == (0.01, 42, 0)
    assert a.n_steps == 1000


def test_distinct_keys_give_distinct_streams():
    base = generate(42, 0, 0.01, 1000)
    assert not np.array_equal(base.increments, generate(42, 1, 0.01, 1000).increments)
    assert not np.array_equal(base.increments, generate(43, 0, 0.01, 1000).increments)


def test_stream_independent_of_draw_order():
    # path 5 has the same bits whether or not other paths were drawn first
    direct = generate(7, 5, 0.02, 256)
    for i in range(5):
        generate(7, i, 0.02, 256)
    again = generate(7, 5, 0.02, 256)
    assert np.array_equal(direct.increments, again.increments)


@pytest.mark.parametrize("kwargs", [
    dict(seed=-1, path_index=0, dt=0.01, n_steps=10),
    dict(seed=2**64, path_index=0, dt=0.01, n_steps=10),
    dict(seed=1.5, path_index=0, dt=0.01, n_steps=10),
    dict(seed=1, path_index=-2, dt=0.01, n_steps=10),
    dict(seed=1, path_index=2**32, dt=0.01, n_steps=10),
    dict(seed=1, path_index=0, dt=0.0, n_steps=10),
    dict(seed=1, path_index=0, dt=-0.01, n_steps=10),
    dict(seed=1, path_index=0, dt=float("nan"), n_steps=10),
    dict(seed=1, path_index=0, dt=0.01, n_steps=0),
    dict(seed=1, path_index=0, dt=0.01, n_steps=2.5),
])
def test_generate_rejects_bad_arguments(kwargs):
    with pytest.raises(ParameterError):
        generate(**kwargs)


# ---------------------------------------------------------------------------
# distributional checks (fixed seed, so these are deterministic)

def test_increment_moments():
    dt = 0.01
    path = generate(42, 0, dt, 10**5)
    z = path.increments / math.sqrt(dt)
    assert abs(path.increments.var() - dt) <= 0.01 * dt
    assert abs(np.mean(z**4) - 3.0) <= 0.1


def test_mean_within_clt_band():
    # 4-sigma band for the mean of 1e6 N(0, dt) draws
    path = generate(42, 0, 0.01, 10**6)
    assert abs(path.increments.mean()) <= 4.0 * math.sqrt(0.01 / 10**6)


def test_paths_are_uncorrelated():
    a = generate(42, 0, 0.01, 10**5).increments
    b = generate(42, 1, 0.01, 10**5).increments
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


# ---------------------------------------------------------------------------
# coarsening

def test_coarsen_hand_example():
    # eight increments of 0.1, factor 4: two increments, each the
    # left-to-right sum 0.1+0.1+0.1+0.1 (which lands exactly on 0.4)
    path = BrownianPath(dt=0.25, increments=np.full(8, 0.1), seed=1, path_index=0)
    out = group_sums(path.increments, 4)
    assert out.shape == (2,)
    expected = ((0.1 + 0.1) + 0.1) + 0.1
    assert out[0] == expected
    assert out[1] == expected
    assert expected == 0.4


def test_coarsen_group_sums_are_left_to_right_bitwise():
    path = generate(9, 3, 0.001, 4096)
    for factor in (2, 4, 64, 512):
        out = group_sums(path.increments, factor)
        fine = path.increments
        assert out.shape == (4096 // factor,)
        for k in range(0, len(out), max(1, len(out) // 16)):
            acc = float(fine[k * factor])
            for j in range(1, factor):
                acc += float(fine[k * factor + j])
            assert out[k] == acc


def test_coarsen_total_displacement_matches_grouped_sum():
    path = generate(11, 0, 0.01, 1024)
    out = group_sums(path.increments, 8)
    # identical float additions in the grouped order on both sides
    fine = [float(x) for x in path.increments]
    total_coarse = total_fine_grouped = 0.0
    for k in range(len(out)):
        group = fine[8 * k]
        for j in range(1, 8):
            group += fine[8 * k + j]
        total_coarse += float(out[k])
        total_fine_grouped += group
    assert total_coarse == total_fine_grouped
    assert total_coarse == pytest.approx(float(np.sum(path.increments)), rel=1e-12, abs=1e-12)


def test_coarsen_cumulative_interpolates_fine_path():
    path = generate(123, 0, 0.01, 2**16)
    for factor in (2, 16, 256):
        coarse = group_sums(path.increments, factor)
        fine_B = np.cumsum(path.increments)[factor - 1::factor]
        coarse_B = np.cumsum(coarse)
        # same real numbers, reassociated float additions: agreement to
        # accumulated rounding, far below any increment's size
        assert np.max(np.abs(fine_B - coarse_B)) <= 1e-10


def test_coarsen_preserves_variance_scale():
    path = generate(5, 0, 0.01, 2**15)
    coarse = group_sums(path.increments, 16)
    assert abs(coarse.var() - 0.16) <= 0.02


def test_group_sums_of_a_time_major_matrix_sums_each_column_alone():
    fine = np.stack([generate(17, i, 0.001, 512).increments for i in range(5)],
                    axis=1)  # (n_steps, n_paths), time-major
    for factor in (1, 2, 8, 64):
        grouped = group_sums(fine, factor)
        assert grouped.shape == (512 // factor, 5)
        for i in range(5):
            assert grouped[:, i].tobytes() == group_sums(fine[:, i], factor).tobytes()
    with pytest.raises(ParameterError):
        group_sums(fine, 3)  # 3 does not divide 512 steps


# ---------------------------------------------------------------------------
# time-major noise streams

def test_generate_is_the_pinned_pcg64_sampler():
    # the documented algorithm written out, so the sampler that generate and
    # NoiseStream share cannot drift from it without failing here
    for seed, i, dt, n in [(0, 0, 0.01, 1000), (2**64 - 1, 2**32 - 1, 3.0, 17)]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        expected = rng.standard_normal(n) * math.sqrt(dt)
        assert generate(seed, i, dt, n).increments.tobytes() == expected.tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1),
       paths=st.lists(st.integers(0, 2**32 - 1), max_size=6).map(
           lambda paths: [0, *paths, 2**32 - 1]))
@example(seed=0, paths=[0, 1, 2**32 - 1])
@example(seed=2**32 - 1, paths=[0, 2**31, 2**32 - 1])
@example(seed=2**32, paths=[0, 2**32 - 1])
@example(seed=2**64 - 1, paths=[0, 2**32 - 1, 5])
def test_vectorised_seeding_is_seed_sequence_bit_for_bit(seed, paths):
    words = brownian._seed_words(seed, np.array(paths))
    expected = np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                         for i in paths])
    assert words.dtype == np.uint64 and words.shape == (len(paths), 4)
    assert words.tobytes() == expected.tobytes()
    # the generators _blocks builds from those words draw what SeedSequence's do
    first = next(brownian._blocks(seed, paths, 5, np.empty((len(paths), 5))))
    for row, i in zip(first, paths):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        assert row.tobytes() == rng.standard_normal(5).tobytes()


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1), n_paths=st.integers(1, 6),
       n_steps=st.integers(1, 40), step_cap=st.integers(1, 9),
       byte_cap=st.integers(1, 800), dt=st.sampled_from([0.01, 1e-6, 0.5, 3.0]))
def test_stream_columns_equal_generated_paths(monkeypatch, seed, n_paths,
                                              n_steps, step_cap, byte_cap, dt):
    # shrunken caps put block boundaries inside short horizons
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    monkeypatch.setattr(brownian, "_BLOCK_BYTES", byte_cap)
    stream = NoiseStream(seed, n_paths, dt, n_steps)
    assert stream.block == max(1, min(n_steps, step_cap, byte_cap // (16 * n_paths)))
    blocks = [block.copy() for block in stream]  # chunks share one buffer
    chunk = math.ceil(stream.block / 4)
    assert all(b.shape[1] == n_paths and len(b) <= chunk for b in blocks)
    stacked = np.concatenate(blocks)
    assert stacked.shape == (n_steps, n_paths)
    for i in range(n_paths):
        expected = generate(seed, i, dt, n_steps).increments
        assert stacked[:, i].tobytes() == expected.tobytes()


def test_stream_blocks_are_contiguous_bounded_and_redrawn_per_iteration(monkeypatch):
    # a (block x 4000) row buffer, plus one chunk of a quarter block in
    # process or a shared ring of five chunks forked, where the block is a
    # third of the cap instead of a half; all under the cap
    for cpus, buffers, slots in [(1, 2, 1), (2, 3, 5)]:
        monkeypatch.setattr(brownian, "_usable_cpus", lambda n=cpus: n)
        stream = NoiseStream(3, 4000, 0.01, 10_000)
        assert stream.block == brownian._BLOCK_BYTES // (buffers * 4000 * 8)
        chunk = math.ceil(stream.block / 4)
        assert (stream.nbytes == (stream.block + slots * chunk) * 4000 * 8
                <= brownian._BLOCK_BYTES)
        first = next(iter(stream)).copy()
        block = next(iter(stream))
        assert block.flags.c_contiguous and block.shape == (chunk, 4000)
        assert np.array_equal(block, first)
    narrow = NoiseStream(3, 10, 0.01, 10_000)
    assert narrow.block == brownian._BLOCK_STEPS < 10_000


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1), n_paths=st.integers(1, 6),
       n_steps=st.integers(1, 40), step_cap=st.integers(1, 9),
       dt=st.sampled_from([0.01, 1e-6, 0.5, 3.0]))
def test_forked_stream_columns_equal_generated_paths(monkeypatch, forks, seed,
                                                     n_paths, n_steps, step_cap, dt):
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    stream = NoiseStream(seed, n_paths, dt, n_steps)
    chunk = math.ceil(stream.block / 4)
    slots = min(5, 2 * stream.block // chunk)  # two, for a one-step block
    assert stream.nbytes == 8 * n_paths * (stream.block + slots * chunk)
    before = len(forks)
    blocks = [block.copy() for block in stream]  # chunks share the ring's slots
    assert len(forks) == before + 1
    assert all(b.shape[1] == n_paths and len(b) <= chunk for b in blocks)
    stacked = np.concatenate(blocks)
    assert stacked.shape == (n_steps, n_paths)
    for i in range(n_paths):
        expected = generate(seed, i, dt, n_steps).increments
        assert stacked[:, i].tobytes() == expected.tobytes()
    _no_child_left()


@pytest.mark.parametrize("slow", ["consumer", "producer"])
def test_the_ring_hands_over_every_chunk_to_a_slow_side(monkeypatch, forks, slow):
    # 7-step blocks in chunks of 2, 2, 2 and 1, and a last block of 3 in 2, 1:
    # chunk edges fall inside blocks, and the ring's slot of a chunk moves
    # from block to block. A slow consumer makes the producer wait for
    # "free" bytes with the ring full; a slow producer makes the consumer
    # wait for "ready" bytes with it empty.
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 7)
    if slow == "producer":
        blocks = brownian._blocks

        def slow_blocks(*args):
            for view in blocks(*args):
                time.sleep(0.01)
                yield view

        monkeypatch.setattr(brownian, "_blocks", slow_blocks)  # before the fork
    chunks = []
    with _within(10):
        for chunk in NoiseStream(9, 3, 0.01, 45):
            chunks.append(chunk.copy())
            if slow == "consumer":
                time.sleep(0.002)
    assert len(forks) == 1
    assert [len(c) for c in chunks] == [2, 2, 2, 1] * 6 + [2, 1]
    stacked = np.concatenate(chunks)
    for i in range(3):
        assert stacked[:, i].tobytes() == generate(9, i, 0.01, 45).increments.tobytes()
    _no_child_left()


@pytest.mark.parametrize("n_paths", [285_714, 300_000, 500_000, 666_666])
def test_a_forked_stream_stays_under_the_byte_cap_down_to_one_step_blocks(forks,
                                                                          n_paths):
    # blocks of 2, 2, 1 and 1 steps, where five one-step ring slots would
    # pass the cap; the ring then holds two blocks
    stream = NoiseStream(1, n_paths, 0.01, 100)
    assert stream.block <= 2
    assert stream.nbytes <= brownian._BLOCK_BYTES
    assert forks == []  # constructing a stream draws nothing


@pytest.mark.parametrize("block", [1, 2])
def test_a_ring_of_fewer_than_five_slots_hands_over_every_chunk(monkeypatch, forks,
                                                                block):
    # a byte cap that leaves 3 paths one- or two-step blocks: one-step
    # chunks in a ring of two blocks, 2 or 4 slots
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_BYTES", 3 * 8 * 3 * block)
    stream = NoiseStream(9, 3, 0.01, 45)
    assert stream.block == block
    assert stream.nbytes == 8 * 3 * 3 * block == brownian._BLOCK_BYTES
    with _within(10):
        chunks = [chunk.copy() for chunk in stream]
    assert len(forks) == 1
    assert [len(c) for c in chunks] == [1] * 45
    stacked = np.concatenate(chunks)
    for i in range(3):
        assert stacked[:, i].tobytes() == generate(9, i, 0.01, 45).increments.tobytes()
    _no_child_left()


def _first_chunk_peak(n_steps: int) -> int:
    """The caller's traced peak while a forked stream of n_steps steps
    hands over its first chunk."""
    stream = NoiseStream(5, 4, 0.01, n_steps)
    tracemalloc.start()
    try:
        chunks = iter(stream)
        next(chunks)
        chunks.close()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_chunk_schedule_does_not_grow_with_the_steps(monkeypatch, forks):
    # the layout of 4000 paths, 166-step blocks in 42-step chunks, on 4
    # paths: 10^7 steps are 240 964 chunks, whose widths a list held in 2 MB
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 166)
    _first_chunk_peak(10**4)  # first-call allocations
    short, long = _first_chunk_peak(10**4), _first_chunk_peak(10**7)
    assert long <= short + 1024
    assert len(forks) == 3
    _no_child_left()


@contextlib.contextmanager
def _within(seconds):
    def timeout(*_):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_forked_stream_leaves_no_process_behind(forks):
    stream = NoiseStream(5, 512, 0.01, 4096)  # 2^21 increments: forks
    assert sum(len(block) for block in stream) == 4096
    _no_child_left()
    next(iter(stream))  # the iterator is dropped after one block
    _no_child_left()
    # the second producer holds a copy of the first one's "free" pipe, so
    # dropping the first iterator must not wait for that pipe's EOF
    first, second = iter(stream), iter(stream)
    next(first), next(second)
    with _within(10):
        del first
        del second
    _no_child_left()
    assert len(forks) == 4


def test_stream_draws_in_process_without_fork_or_a_second_cpu(monkeypatch, forks):
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: 1)
    one_cpu = NoiseStream(5, 512, 0.01, 4096)
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    no_fork = NoiseStream(5, 512, 0.01, 4096)
    for stream in one_cpu, no_fork:
        assert stream.nbytes == 8 * 512 * (stream.block + math.ceil(stream.block / 4))
        next(iter(stream))
    assert forks == []


def test_stream_draws_in_process_when_fork_fails(monkeypatch):
    def refuse():
        raise BlockingIOError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 3)
    open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
    stacked = np.concatenate([block.copy() for block in NoiseStream(7, 3, 0.01, 10)])
    for i in range(3):
        assert stacked[:, i].tobytes() == generate(7, i, 0.01, 10).increments.tobytes()
    if open_fds:  # the four pipe ends are closed again
        assert len(os.listdir("/proc/self/fd")) == open_fds


def test_a_killed_producer_makes_iteration_raise(monkeypatch, forks):
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 8)
    blocks = iter(NoiseStream(5, 3, 0.01, 80_000))
    next(blocks)
    os.kill(forks[0], signal.SIGKILL)
    with _within(10), pytest.raises(RuntimeError, match="noise producer process .* ended"):
        for _ in blocks:
            pass
    _no_child_left()


def test_forking_a_multithreaded_process_warns_nothing(monkeypatch, forks):
    # Python 3.12+ warns on fork() while another thread runs, as numpy's
    # OpenBLAS thread does. The warning is dropped, not raised, under
    # -W error, so only a record shows whether the stream lets it through.
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # one block of 50 steps, in chunks of 13, 13, 13 and 11
            assert len(list(NoiseStream(1, 2, 0.01, 50))) == 4
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert len(forks) == 1
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# a settling run_batch skips the draws of its settled paths, privately

P_FIG1 = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in_process"])
def test_a_stream_consumed_by_a_settling_run_still_equals_generate(monkeypatch,
                                                                  forks, cpus):
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 5)
    monkeypatch.setattr(integrators, "_SPLIT_MIN", 1)
    stream = NoiseStream(11, 4, 0.01, 40)
    run_batch(Scheme.MILSTEIN, P_FIG1, np.array([50.0, 100.0, 30.0, 0.0]),
              np.array([10.0, 0.0, 0.0, -0.0]), 0.4, 0.01, stream)
    stacked = np.concatenate([block.copy() for block in stream])
    for i in range(4):
        assert stacked[:, i].tobytes() == generate(11, i, 0.01, 40).increments.tobytes()
    assert len(forks) == (2 if cpus == 2 else 0)


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in_process"])
def test_an_all_frozen_run_draws_nothing_after_its_first_two_blocks(monkeypatch,
                                                                   forks, cpus):
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 10)
    # a forked producer counts in these too
    draws = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    made = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            made[0] += 1
            self.rng = default_rng(seed)

        def standard_normal(self, out):
            draws[0] += 1
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    n = 8
    # (K, 0) is a fixed point: every lane is frozen, over 20 blocks
    result = run_batch(Scheme.MILSTEIN, P_FIG1, np.full(n, 100.0), np.zeros(n),
                       2.0, 0.01, NoiseStream(3, n, 0.01, 200))
    assert np.all(result.U == 100.0) and np.all(result.V == 0.0)
    # a forked producer may draw block 1 before the engine writes the mask
    assert draws[0] <= 2 * n
    # every generator came through default_rng, so the bound above saw them all
    assert made[0] == n
    assert len(forks) == (1 if cpus == 2 else 0)


def test_stream_validates_its_key_and_grid():
    for args in [(-1, 2, 0.01, 10), (2**64, 2, 0.01, 10), (1, 0, 0.01, 10),
                 (1, 2.5, 0.01, 10), (1, True, 0.01, 10), (1, 2, 0.0, 10),
                 (1, 2, float("nan"), 10), (1, 2, 0.01, 0)]:
        with pytest.raises(ParameterError):
            NoiseStream(*args)

import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jobmarket import BrownianPath, ParameterError, coarsen, generate, load_path, save_path
from jobmarket import brownian
from jobmarket.brownian import group_sums
from jobmarket.brownian import NoiseStream


# ---------------------------------------------------------------------------
# generation and determinism

def test_regeneration_is_bit_identical():
    a = generate(42, 0, 0.01, 1000)
    b = generate(42, 0, 0.01, 1000)
    assert np.array_equal(a.increments, b.increments)
    assert (a.dt, a.seed, a.path_index) == (0.01, 42, 0)
    assert a.n_steps == 1000
    assert a.horizon == pytest.approx(10.0, rel=1e-15)


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

def test_coarsen_identity_factor_is_noop():
    path = generate(1, 0, 0.5, 8)
    assert coarsen(path, 1) is path


def test_coarsen_hand_example():
    # eight increments of 0.1, factor 4: two increments, each the
    # left-to-right sum 0.1+0.1+0.1+0.1 (which lands exactly on 0.4)
    path = BrownianPath(dt=0.25, increments=np.full(8, 0.1), seed=1, path_index=0)
    out = coarsen(path, 4)
    assert out.n_steps == 2
    assert out.dt == 1.0
    expected = ((0.1 + 0.1) + 0.1) + 0.1
    assert out.increments[0] == expected
    assert out.increments[1] == expected
    assert expected == 0.4


def test_coarsen_group_sums_are_left_to_right_bitwise():
    path = generate(9, 3, 0.001, 4096)
    for factor in (2, 4, 64, 512):
        out = coarsen(path, factor)
        fine = path.increments
        for k in range(0, out.n_steps, max(1, out.n_steps // 16)):
            acc = float(fine[k * factor])
            for j in range(1, factor):
                acc += float(fine[k * factor + j])
            assert out.increments[k] == acc
        assert out.dt == path.dt * factor


def test_coarsen_total_displacement_matches_grouped_sum():
    path = generate(11, 0, 0.01, 1024)
    out = coarsen(path, 8)
    # identical float additions in the grouped order on both sides
    regrouped = group_sums(path.increments, 8)
    total_coarse = float(out.increments[0])
    total_fine_grouped = float(regrouped[0])
    for k in range(1, out.n_steps):
        total_coarse += float(out.increments[k])
        total_fine_grouped += float(regrouped[k])
    assert total_coarse == total_fine_grouped
    assert total_coarse == pytest.approx(float(np.sum(path.increments)), rel=1e-12, abs=1e-12)


def test_coarsen_cumulative_interpolates_fine_path():
    path = generate(123, 0, 0.01, 2**16)
    for factor in (2, 16, 256):
        coarse = coarsen(path, factor)
        fine_B = np.cumsum(path.increments)[factor - 1::factor]
        coarse_B = np.cumsum(coarse.increments)
        # same real numbers, reassociated float additions: agreement to
        # accumulated rounding, far below any increment's size
        assert np.max(np.abs(fine_B - coarse_B)) <= 1e-10


def test_coarsen_preserves_variance_scale():
    path = generate(5, 0, 0.01, 2**15)
    coarse = coarsen(path, 16)
    assert abs(coarse.increments.var() - 0.16) <= 0.02


def test_coarsen_rejects_bad_factors():
    path = generate(1, 0, 0.01, 12)
    with pytest.raises(ParameterError):
        coarsen(path, 5)  # 5 does not divide 12
    with pytest.raises(ParameterError):
        coarsen(path, 0)
    with pytest.raises(ParameterError):
        coarsen(path, -2)


# ---------------------------------------------------------------------------
# binary dump

def test_save_load_round_trip_is_bit_exact():
    path = generate(2**63 + 17, 9, 0.125, 777)
    buf = io.BytesIO()
    save_path(path, buf)
    data = buf.getvalue()
    assert len(data) == 32 + 8 * 777
    assert data[:6] == b"BPATH1"
    loaded = load_path(io.BytesIO(data))
    assert loaded.dt == path.dt
    assert loaded.seed == path.seed
    assert loaded.path_index == path.path_index
    assert np.array_equal(loaded.increments, path.increments)


def test_load_rejects_corrupt_data():
    path = generate(1, 0, 0.01, 16)
    buf = io.BytesIO()
    save_path(path, buf)
    data = buf.getvalue()
    with pytest.raises(ParameterError):
        load_path(io.BytesIO(b"NOTPATH!" + data[8:]))
    with pytest.raises(ParameterError):
        load_path(io.BytesIO(data[:40]))  # truncated increments
    with pytest.raises(ParameterError):
        load_path(io.BytesIO(data[:16]))  # truncated header


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
    blocks = [block.copy() for block in stream]  # blocks share one buffer
    assert all(b.shape[1] == n_paths and len(b) <= stream.block for b in blocks)
    stacked = np.concatenate(blocks)
    assert stacked.shape == (n_steps, n_paths)
    for i in range(n_paths):
        expected = generate(seed, i, dt, n_steps).increments
        assert stacked[:, i].tobytes() == expected.tobytes()


def test_stream_blocks_are_contiguous_bounded_and_redrawn_per_iteration():
    stream = NoiseStream(3, 4000, 0.01, 10_000)
    # a row buffer and a block, both (block x 4000) doubles, under the cap
    assert stream.block == brownian._BLOCK_BYTES // (2 * 4000 * 8)
    assert stream.nbytes == 2 * stream.block * 4000 * 8 <= brownian._BLOCK_BYTES
    first = next(iter(stream)).copy()
    block = next(iter(stream))
    assert block.flags.c_contiguous and block.shape == (stream.block, 4000)
    assert np.array_equal(block, first)
    narrow = NoiseStream(3, 10, 0.01, 10_000)
    assert narrow.block == brownian._BLOCK_STEPS < 10_000


def test_stream_validates_its_key_and_grid():
    for args in [(-1, 2, 0.01, 10), (2**64, 2, 0.01, 10), (1, 0, 0.01, 10),
                 (1, 2.5, 0.01, 10), (1, True, 0.01, 10), (1, 2, 0.0, 10),
                 (1, 2, float("nan"), 10), (1, 2, 0.01, 0)]:
        with pytest.raises(ParameterError):
            NoiseStream(*args)

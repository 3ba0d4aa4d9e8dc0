import copy
import math
import pickle

import numpy as np
import pytest

from jobmarket import (
    ModelParams,
    ParameterError,
    Regime,
    State,
    ZeroNoiseError,
    classify_regime,
    drift,
    extinction_index,
    persistence_floor,
    r0s,
    ultimate_bound,
)

from updates import drift as reference_drift

P_EXTINCT = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
P_PERSIST = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)


def random_params(rng):
    return ModelParams(
        r=rng.uniform(0.05, 2.0),
        K=rng.uniform(10.0, 200.0),
        m=rng.uniform(1e-4, 0.5),
        d=rng.uniform(0.05, 1.0),
        sigma=rng.uniform(0.0, 0.2),
    )


# ---------------------------------------------------------------------------
# parameter validation

@pytest.mark.parametrize("field", ["r", "K", "m", "d"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_positive_constants_required(field, bad):
    kwargs = dict(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.1)
    kwargs[field] = bad
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_sigma_zero_allowed_negative_rejected():
    assert ModelParams(1.0, 100.0, 0.1, 0.2, 0.0).sigma == 0.0
    with pytest.raises(ParameterError):
        ModelParams(1.0, 100.0, 0.1, 0.2, -0.01)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", True, None])
def test_nonfinite_and_nonnumeric_rejected(bad):
    with pytest.raises(ParameterError):
        ModelParams(r=bad, K=100.0, m=0.1, d=0.2, sigma=0.1)


def test_mu_is_derived_min():
    assert ModelParams(1.0, 100.0, 0.1, 0.2, 0.0).mu() == 0.2
    assert ModelParams(0.1, 100.0, 0.1, 0.2, 0.0).mu() == 0.1


_GOOD = {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.1}


@pytest.mark.parametrize("field, bad, message", [
    ("r", 0.0, "r must be > 0, got 0.0"),
    ("K", -1, "K must be > 0, got -1.0"),
    ("d", -0.0, "d must be > 0, got -0.0"),
    ("sigma", -0.01, "sigma must be >= 0, got -0.01"),
    ("m", float("nan"), "m must be finite, got nan"),
    ("sigma", "0.1", "sigma must be a real number, got '0.1'"),
    ("d", True, "d must be a real number, got True"),
])
def test_every_construction_path_gives_the_same_message(field, bad, message):
    values = {**_GOOD, field: bad}
    builds = {
        "keyword": lambda: ModelParams(**values),
        "positional": lambda: ModelParams(*values.values()),
        "from_dict": lambda: ModelParams.from_dict(values),
    }
    for path, build in builds.items():
        with pytest.raises(ParameterError) as exc:
            build()
        assert str(exc.value) == message, path


def test_params_are_an_immutable_value():
    p = ModelParams(r=1, K=100, m=0.1, d=0.2, sigma=0)
    for name in ("r", "sigma", "half_sigma_sq", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, 2.0)
    with pytest.raises(AttributeError):
        del p.K
    assert [getattr(p, name) for name in _GOOD] == [1.0, 100.0, 0.1, 0.2, 0.0]
    assert all(type(getattr(p, name)) is float for name in _GOOD)

    same = ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)
    assert p == same and not p != same and hash(p) == hash(same)
    assert len({p, same}) == 1
    assert p != ModelParams(1.0, 100.0, 0.1, 0.2, 1e-300)
    assert p != (1.0, 100.0, 0.1, 0.2, 0.0)
    assert repr(p) == "ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.0)"
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and repr(clone) == repr(p)


def test_params_json_round_trip():
    d = {name: getattr(P_PERSIST, name) for name in ModelParams.__slots__}
    assert d == {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.001}
    assert ModelParams.from_dict(d) == P_PERSIST


def test_params_from_dict_is_strict():
    with pytest.raises(ParameterError):
        ModelParams.from_dict({"r": 1, "K": 100, "m": 0.1, "d": 0.2,
                               "sigma": 0.1, "extra": 3})
    with pytest.raises(ParameterError):
        ModelParams.from_dict({"r": 1, "K": 100, "m": 0.1, "d": 0.2})
    with pytest.raises(ParameterError):
        ModelParams.from_dict([1, 2, 3])


# ---------------------------------------------------------------------------
# vector fields

def test_drift_vanishes_at_origin_and_capacity():
    assert drift(State(0.0, 0.0), P_PERSIST) == (0.0, 0.0)
    assert drift(State(100.0, 0.0), P_PERSIST) == (0.0, 0.0)


def test_drift_vanishes_at_interior_equilibrium():
    # u* = d/m = 2, v* = (r/m)(1 - d/(mK)) = 9.8; both balances are ~1.96
    # so 1e-12 absolute is ~5e-13 relative to the cancelling terms
    du, dv = drift(State(2.0, 9.8), P_PERSIST)
    assert abs(du) <= 1e-12
    assert abs(dv) <= 1e-12


def test_interior_equilibrium_is_a_drift_zero():
    # the positive rest point u* = d/m, v* = (r/m)(1 - d/(m*K)) of the
    # noise-free system; it lies in the open quadrant only when u* < K
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(500):
        p = random_params(rng)
        u_star = p.d / p.m
        if u_star >= p.K:
            continue
        found += 1
        eq = State(u_star, (p.r / p.m) * (1.0 - p.d / (p.m * p.K)))
        du, dv = drift(eq, p)
        scale = max(1.0, p.r * eq.u, p.d * eq.v)
        assert abs(du) <= 1e-12 * scale
        assert abs(dv) <= 1e-12 * scale
    assert found > 50


def test_drift_components_by_hand():
    # u=10, v=5: r*u*(1-u/K) = 9, m*u*v = 5, d*v = 1
    du, dv = drift(State(10.0, 5.0), ModelParams(1.0, 100.0, 0.1, 0.2, 0.09))
    assert du == 9.0 - 5.0
    assert dv == 5.0 - 1.0


_ROW = np.array([0.0, 2.0, 120.0])
_GRID = np.array([[9.8, -0.0, 1e300], [0.5, 3.0, np.inf]])


@pytest.mark.parametrize("u, v", [
    (_ROW, _GRID),                  # v wider than u
    (_GRID, _ROW),                  # u wider than v
    (37.5, _GRID), (_ROW, 9.8),     # a float against lanes
    (np.array(37.5), _GRID), (_ROW, np.array(9.8)),  # 0-d against lanes
    (np.float64(2.0), 9.8),
])
def test_drift_broadcasts_into_fresh_arrays(u, v):
    before = [np.asarray(x).tobytes() for x in (u, v)]
    with np.errstate(all="ignore"):
        got = drift((u, v), P_PERSIST)
        want = reference_drift((u, v), P_PERSIST)
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    for g, w in zip(got, want):
        # the reference's shape and bits, in an array that is neither input
        assert np.shape(g) == shape and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert not (np.shares_memory(g, u) or np.shares_memory(g, v))
    assert not np.shares_memory(*got)
    assert [np.asarray(x).tobytes() for x in (u, v)] == before


def test_drift_sum_equals_noise_free_balance():
    # the matching flux m*u*v is computed once, so the component sum
    # reproduces r*u*(1-u/K) - d*v to rounding
    rng = np.random.default_rng(2)
    for _ in range(500):
        p = random_params(rng)
        u, v = rng.uniform(0, 300), rng.uniform(0, 300)
        du, dv = drift(State(u, v), p)
        balance = p.r * u * (1.0 - u / p.K) - p.d * v
        assert math.isclose(du + dv, balance, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# thresholds

def test_extinction_index_values():
    assert extinction_index(P_EXTINCT) == pytest.approx(-0.19994, abs=1e-5)
    assert extinction_index(
        ModelParams(1.0, 100.0, 0.1, 0.2, 0.001)) == pytest.approx(4999.8, rel=1e-12)
    # m may not be zero (the filling rate is strictly positive), but the
    # index tends to -d as m does
    tiny_m = ModelParams(1.0, 100.0, 1e-15, 0.2, 0.09)
    assert extinction_index(tiny_m) == pytest.approx(-0.2, rel=1e-12)


def test_extinction_index_rejects_zero_noise():
    with pytest.raises(ZeroNoiseError):
        extinction_index(ModelParams(1.0, 100.0, 0.1, 0.2, 0.0))


def test_r0s_values():
    assert r0s(P_PERSIST) == 4.975
    assert r0s(ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)) == 5.0  # r/d at sigma=0
    assert r0s(ModelParams(1.0, 1.0, 0.1, 1.0, 1.0)) == 0.5


def test_persistence_floor_values():
    floor = persistence_floor(P_PERSIST)
    # d*(r0s-1)/(m+d) = 0.2*3.975/0.3
    assert floor == pytest.approx(2.65, rel=1e-12)
    assert floor == 0.2 * (r0s(P_PERSIST) - 1.0) / (0.1 + 0.2)
    # m <= r/K: condition fails
    assert persistence_floor(ModelParams(1.0, 100.0, 0.005, 0.2, 0.001)) is None
    # noise strong enough that r0s <= 1
    assert persistence_floor(ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)) is None


def test_ultimate_bound_values():
    assert ultimate_bound(ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)) == 500.0
    assert ultimate_bound(ModelParams(0.5, 10.0, 0.1, 1.0, 0.0)) == 10.0
    assert ultimate_bound(
        ModelParams(0.3, 7.0, 0.1, 0.4, 0.0)) == pytest.approx(7.0, rel=1e-15)


def test_ultimate_bound_at_least_K():
    rng = np.random.default_rng(3)
    for _ in range(500):
        p = random_params(rng)
        # one ulp of slack: when mu == r the division can round just below K
        assert ultimate_bound(p) >= p.K * (1.0 - 1e-15)


# ---------------------------------------------------------------------------
# classification

def test_classify_extinct_scenario():
    report = classify_regime(P_EXTINCT)
    assert report.classification is Regime.EXTINCTION
    assert report.extinction_index < 0.0
    assert report.persistence_floor is None
    assert report.threshold_conflict is False
    assert report.ultimate_bound == 500.0


def test_classify_persistent_scenario():
    report = classify_regime(P_PERSIST)
    assert report.classification is Regime.PERSISTENCE
    assert report.extinction_index >= 0.0
    assert report.r0s == 4.975
    assert report.m_minus_r_over_K == pytest.approx(0.09, abs=1e-15)
    assert report.persistence_floor == pytest.approx(2.65, rel=1e-12)


def test_classify_indeterminate_scenario():
    # extinction_index = 0.3 >= 0 but m - r/K = -0.005 < 0
    report = classify_regime(ModelParams(1.0, 100.0, 0.005, 0.2, 0.005))
    assert report.extinction_index == pytest.approx(0.3, rel=1e-12)
    assert report.m_minus_r_over_K == pytest.approx(-0.005, rel=1e-12)
    assert report.classification is Regime.INDETERMINATE
    assert report.persistence_floor is None


def test_classify_rejects_zero_noise():
    with pytest.raises(ZeroNoiseError):
        classify_regime(ModelParams(1.0, 100.0, 0.1, 0.2, 0.0))


def test_classification_consistent_with_thresholds():
    rng = np.random.default_rng(4)
    for _ in range(500):
        p = random_params(rng)
        if p.sigma == 0.0:
            continue
        report = classify_regime(p)
        extinct = report.extinction_index < 0.0
        persist = report.r0s > 1.0 and report.m_minus_r_over_K > 0.0
        assert (report.classification is Regime.EXTINCTION) == extinct
        if report.classification is Regime.PERSISTENCE:
            assert report.persistence_floor is not None
            assert report.persistence_floor > 0.0
        assert (report.persistence_floor is not None) == persist
        if report.persistence_floor is not None:
            expected = p.d * (report.r0s - 1.0) / (p.m + p.d)
            assert math.isclose(report.persistence_floor, expected, rel_tol=1e-12)
        # the conflict region (both criteria at once) is algebraically empty:
        # it would need (r - 2d)^2 < 0
        assert report.threshold_conflict is False


def test_regime_report_json_shape():
    payload = classify_regime(P_PERSIST).to_dict()
    assert payload["classification"] == "persistence"
    assert set(payload) == {"extinction_index", "r0s", "m_minus_r_over_K",
                            "persistence_floor", "ultimate_bound",
                            "classification", "threshold_conflict"}
    assert classify_regime(P_EXTINCT).to_dict()["classification"] == "extinction"

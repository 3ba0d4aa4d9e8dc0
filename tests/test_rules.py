import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jobmarket import ParameterError
from jobmarket._rules import _check_initial, _resolve_steps

# the edges of the initial-state rule: signed zeros, the smallest subnormals,
# ordinary and huge magnitudes, infinities and NaN
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, float("inf"), float("-inf"),
         float("nan")]


def initial_ok(u, v) -> bool:
    """The reference: the numpy expression the rule replaced, for floats and
    lane arrays alike."""
    return bool(np.all((u >= 0.0) & (u < np.inf)) and np.all((v >= 0.0) & (v < np.inf)))


def _accepts(u, v) -> bool:
    try:
        _check_initial(u, v)
    except ParameterError as exc:
        assert str(exc) == "initial states must be finite and nonnegative"
        return False
    return True


_VALUE = st.sampled_from(EDGES)
_LANES = st.lists(_VALUE, min_size=1, max_size=6).map(np.array)


@given(u=st.one_of(_VALUE, _LANES), v=st.one_of(_VALUE, _LANES))
def test_initial_state_rule_matches_the_numpy_reference(u, v):
    assert _accepts(u, v) == initial_ok(u, v)


@pytest.mark.parametrize("u,v", [
    (np.array([[1.0, 2.0], [0.0, 3.0]]), np.ones((2, 2))),  # (cells, paths) lanes
    (np.array([[1.0, 2.0], [float("nan"), 3.0]]), np.ones((2, 2))),
    (np.float64(1.0), np.float64(-0.0)),
    (np.float64(1.0), np.float64(-1.0)),
])
def test_initial_state_rule_on_cell_lanes_and_numpy_scalars(u, v):
    assert _accepts(u, v) == initial_ok(u, v)


def test_the_step_bound_is_numpys_index_bound():
    assert sys.maxsize == np.iinfo(np.intp).max
    assert _resolve_steps(2.0**63 - 1024, 1.0) == 2**63 - 1024
    with pytest.raises(ParameterError):
        _resolve_steps(2.0**63, 1.0)

import math

import numpy as np
import pytest

from orc.geometry import (Box, HalfSpace, _halfspace, as_unit_vector,
                          as_vector, as_vector_of, coordinate_segment_endpoints,
                          linf_ball_contains, normalized, unit)

# v.v of a vector with entries near 1e200 overflows, by design of the check
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

NOT_FINITE = [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0], [np.inf, -np.inf],
              [1e200, np.nan], [1e200, np.inf]]


def test_as_vector_accepts_lists_and_arrays():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64
    np.testing.assert_array_equal(v, [1.0, 2.0])


def test_as_vector_rejects_matrices_and_scalars():
    with pytest.raises(ValueError):
        as_vector(np.eye(2))
    with pytest.raises(ValueError):
        as_vector(3.0)


@pytest.mark.parametrize("bad", NOT_FINITE)
def test_as_vector_rejects_nan_and_inf(bad):
    with pytest.raises(ValueError, match="vector entries must be finite"):
        as_vector(bad)


def test_as_vector_accepts_entries_whose_square_sum_overflows():
    v = np.full(4, 1e200)
    assert not math.isfinite(float(v @ v))
    assert as_vector(v) is v
    assert as_vector([-1e200, 1e300]).tolist() == [-1e200, 1e300]


def test_as_vector_of_checks_the_dimension():
    v = np.array([1.0, 2.0])
    assert as_vector_of(v, 2) is v
    for bad in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="expected a vector of dimension 2, got"):
            as_vector_of(bad, 2)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        as_vector_of([np.nan, 0.0], 2)


def _unit_vector_error(coords):
    """The message of the parent's checks: entrywise finiteness, then the
    unit-norm test on np.linalg.norm."""
    v = np.asarray(coords, dtype=np.float64)
    if not np.isfinite(v).all():
        return "vector entries must be finite"
    return f"not a unit vector: ||v|| = {float(np.linalg.norm(v))!r}"


@pytest.mark.parametrize("bad", NOT_FINITE + [[0.6, 0.81], [1e200, 0.0], [1e-200, 0.0]])
def test_as_unit_vector_and_halfspace_raise_the_entry_errors(bad):
    expected = _unit_vector_error(bad)
    with pytest.raises(ValueError) as err:
        as_unit_vector(bad)
    assert str(err.value) == expected
    with pytest.raises(ValueError) as err:
        HalfSpace(bad, [0.0, 0.0], 0.0)
    assert str(err.value) == expected


@pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf, -0.1, -5e-324])
def test_halfspace_rejects_bad_slack(slack):
    with pytest.raises(ValueError, match="slack must be finite and >= 0"):
        HalfSpace([1.0, 0.0], [0.0, 0.0], slack)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        HalfSpace([1.0, 0.0], [np.nan, 0.0], 0.0)


def test_normalized_is_unit_and_norm_bitwise():
    gen = np.random.default_rng(0)
    for n in (1, 2, 3, 4, 7, 8, 16, 33, 64):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for v in scale * gen.normal(size=(50, n)):
                expected = v / float(np.linalg.norm(v))
                assert normalized(v).tobytes() == expected.tobytes()
                assert unit(v).tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="zero vector"):
        normalized(np.zeros(3))


@pytest.mark.parametrize("v, expected", [
    ([0.0, -5e-324, 0.0], [0.0, -1.0, 0.0]),
    ([3e-170, -4e-170], [0.6, -0.8]),
    ([1e-160, 1e-160, 1e-160, 1e-160], [0.5, 0.5, 0.5, 0.5]),
])
def test_normalized_keeps_the_direction_when_the_square_underflows(v, expected):
    v = np.array(v)
    assert v @ v < np.finfo(float).tiny
    np.testing.assert_allclose(normalized(v), expected, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(unit(v), expected, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="zero vector"):
        normalized(np.array([0.0, -0.0]))


@pytest.mark.parametrize("v", [[1e200, 3e200], [1e308, -1e308], [-1e155, 0.0, 1e155],
                               [1e160] * 16, [1e200, 5e-324]])
def test_normalized_keeps_the_direction_when_the_square_overflows(v):
    v = np.array(v)
    assert not math.isfinite(float(v @ v))
    expected = v / np.max(np.abs(v))
    expected /= np.linalg.norm(expected)
    for w in (normalized(v), unit(v)):
        np.testing.assert_allclose(w, expected, rtol=1e-15, atol=0.0)
        assert as_unit_vector(w) is w


@pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 0.0], [1e300, np.nan]])
def test_normalized_refuses_a_vector_with_a_non_finite_entry(v):
    # what an overflowed normal looks like: never a non-unit result
    with pytest.raises(ValueError, match="non-finite entry"):
        normalized(np.array(v))


def test_private_halfspace_stores_its_values_as_given():
    normal, anchor = np.array([0.6, 0.8]), np.array([1.0, -2.0])
    h = _halfspace(normal, anchor, 0.25)
    assert isinstance(h, HalfSpace) and h == HalfSpace(normal, anchor, 0.25)
    assert h.normal is normal and h.anchor is anchor and h.slack == 0.25
    with pytest.raises(AttributeError):
        h.slack = 1.0


def test_unit_normalizes():
    np.testing.assert_allclose(unit([3.0, 4.0]), [0.6, 0.8])
    with pytest.raises(ValueError):
        unit([0.0, 0.0])


def test_as_unit_vector_requires_unit_norm():
    as_unit_vector([0.6, 0.8])
    with pytest.raises(ValueError):
        as_unit_vector([0.6, 0.81])


def test_halfspace_requires_unit_normal_and_nonnegative_slack():
    h = HalfSpace([1.0, 0.0], [1.0, 0.0], 0.5)
    np.testing.assert_allclose(h.normal, [1.0, 0.0])
    with pytest.raises(ValueError):
        HalfSpace([2.0, 0.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        HalfSpace([1.0, 0.0], [0.0, 0.0], -0.1)


def test_linf_ball_contains():
    box = Box(np.zeros(2), 0.5)
    assert linf_ball_contains(box, [0.5, -0.5])
    assert not linf_ball_contains(box, [0.51, 0.0])


def test_coordinate_segment_endpoints_clamp_one_axis():
    box = Box(np.array([1.0, -1.0]), 0.25)
    z = np.array([1.1, -0.9])
    lo, hi = coordinate_segment_endpoints(box, z, 0)
    np.testing.assert_allclose(lo, [0.75, -0.9])
    np.testing.assert_allclose(hi, [1.25, -0.9])
    lo, hi = coordinate_segment_endpoints(box, z, 1)
    np.testing.assert_allclose(lo, [1.1, -1.25])
    np.testing.assert_allclose(hi, [1.1, -0.75])


def test_coordinate_segment_requires_point_in_box():
    box = Box(np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        coordinate_segment_endpoints(box, np.array([0.5, 0.0]), 0)

"""Dense array helpers and seeded randomness."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import child_env
from uer.numeric import (ShapeError, as_matrix, as_vector, l2_norm, make_rng,
                         matvec, require_finite, rng_uniform)


def test_matvec_identity():
    assert np.array_equal(matvec([[1, 0], [0, 1]], [2, 3]), [2.0, 3.0])


def test_matvec_hand_arithmetic():
    assert np.array_equal(matvec([[1, 2]], [3, 4]), [11.0])


def test_matvec_zero_matrix():
    assert np.array_equal(matvec([[0, 0], [0, 0]], [5, 5]), [0.0, 0.0])


def test_matvec_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matvec([[1, 2, 3]], [1, 2])
    assert "(1, 3)" in str(err.value) and "(2,)" in str(err.value)


def test_as_vector_rejects_matrix():
    with pytest.raises(ShapeError):
        as_vector([[1, 2]])


def test_as_matrix_rejects_vector():
    with pytest.raises(ShapeError):
        as_matrix([1, 2])


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(
    m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                              min_side=1, max_side=6),
                 elements=finite_floats),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_matvec_distributes_over_addition(m, data):
    cols = m.shape[1]
    a = data.draw(hnp.arrays(np.float64, (cols,), elements=finite_floats))
    b = data.draw(hnp.arrays(np.float64, (cols,), elements=finite_floats))
    left = matvec(m, a + b)
    right = matvec(m, a) + matvec(m, b)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-12 * (1 + np.abs(right).max()))


def test_l2_norm_345():
    assert l2_norm([3, 4]) == pytest.approx(5.0, abs=1e-12)


def test_l2_norm_zero_vector():
    assert l2_norm([0, 0]) == 0.0


def test_l2_norm_ones():
    assert l2_norm([1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-12)


@given(
    v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1,
                                              min_side=1, max_side=8),
                 elements=st.floats(min_value=-1e3, max_value=1e3,
                                    allow_nan=False, allow_infinity=False)),
    c=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=60, deadline=None)
def test_l2_norm_absolute_homogeneity(v, c):
    assert l2_norm(c * v) == pytest.approx(abs(c) * l2_norm(v), abs=1e-9)


def test_rng_uniform_range_and_distinctness():
    rng = make_rng(7)
    a = rng_uniform(rng, 0.0, 1.0)
    b = rng_uniform(rng, 0.0, 1.0)
    assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
    assert a != b


def test_rng_uniform_tiny_interval():
    rng = make_rng(123)
    v = rng_uniform(rng, 5.0, 5.0001)
    assert 5.0 <= v < 5.0001


def test_rng_uniform_rejects_bad_interval():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        rng_uniform(rng, 1.0, 1.0)
    with pytest.raises(ValueError):
        rng_uniform(rng, 2.0, 1.0)


def test_rng_determinism_same_seed():
    a = make_rng(7)
    b = make_rng(7)
    assert [rng_uniform(a, 0, 1) for _ in range(5)] == \
           [rng_uniform(b, 0, 1) for _ in range(5)]


def test_rng_sequence_seed():
    # composite seeds select distinct, reproducible streams
    assert rng_uniform(make_rng([3, 0]), 0, 1) != rng_uniform(make_rng([3, 1]), 0, 1)
    assert rng_uniform(make_rng([3, 0]), 0, 1) == rng_uniform(make_rng([3, 0]), 0, 1)


def test_rng_identical_across_processes():
    code = ("from uer.numeric import make_rng; "
            "print(repr(make_rng(11).uniform(0, 1, size=4).tolist()))")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=child_env()).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    here = repr(make_rng(11).uniform(0, 1, size=4).tolist()) + "\n"
    assert runs[0] == here


def test_require_finite_passes_and_raises():
    arr = np.array([1.0, 2.0])
    assert require_finite(arr, "ok") is arr
    with pytest.raises(FloatingPointError, match="bad stuff"):
        require_finite(np.array([1.0, np.nan]), "bad stuff")
    with pytest.raises(FloatingPointError):
        require_finite(np.array([np.inf]))

"""Seeded randomness, shape and finiteness checks."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from uer.numeric import ShapeError, as_vector, make_rng, require_finite


def test_as_vector_rejects_matrix():
    with pytest.raises(ShapeError):
        as_vector([[1, 2]])


def test_rng_determinism_same_seed():
    a = make_rng(7)
    b = make_rng(7)
    assert [a.uniform(0, 1) for _ in range(5)] == [b.uniform(0, 1) for _ in range(5)]


def test_rng_sequence_seed():
    # composite seeds select distinct, reproducible streams
    assert make_rng([3, 0]).uniform(0, 1) != make_rng([3, 1]).uniform(0, 1)
    assert make_rng([3, 0]).uniform(0, 1) == make_rng([3, 0]).uniform(0, 1)


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

"""Seeded randomness, shape and finiteness checks, and the one BLAS thread
that importing the package sets."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import blas_versions, child_env
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


def test_importing_the_package_splits_a_one_column_product_bit_for_bit():
    # NumPy is loaded first and told to use two threads; under two threads
    # this product's row 1152 differs in the last bits from the same row of
    # the block [768, 1536) unless importing uer drops OpenBLAS to one
    code = ("import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "A, w = rng.normal(size=(2305, 256)), rng.normal(size=(1, 256))\n"
            "import uer.numeric\n"
            "print(uer.numeric.BLAS_ONE_THREAD)\n"
            "full = A @ w.T\n"
            "print(all((A[lo:hi] @ w.T).tobytes() == full[lo:hi].tobytes()\n"
            "          for lo, hi in ((0, 768), (768, 1536), (1536, 2305))))\n")
    env = dict(child_env(), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.split()
    assert out == ["True", "True"], blas_versions()


def test_require_finite_passes_and_raises():
    arr = np.array([1.0, 2.0])
    assert require_finite(arr, "ok") is arr
    with pytest.raises(FloatingPointError, match="bad stuff"):
        require_finite(np.array([1.0, np.nan]), "bad stuff")
    with pytest.raises(FloatingPointError):
        require_finite(np.array([np.inf]))

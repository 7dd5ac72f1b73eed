"""Dense float64 arrays and seeded randomness shared by every module.

DenseMatrix and DenseVector are plain numpy arrays (2-d and 1-d, float64).
Every stochastic routine in the package takes an explicit Rng handle, a
numpy PCG64 generator, so a run is fully determined by its seeds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DenseMatrix = np.ndarray
DenseVector = np.ndarray
Rng = np.random.Generator


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


class NonFiniteError(FloatingPointError):
    """Values went non-finite. For a block stacked on a leading axis (one
    slice per run), ``seeds`` lists the positions on that axis whose slices
    hold a non-finite entry; otherwise it is None."""

    def __init__(self, message: str, seeds: list[int] | None = None):
        super().__init__(message)
        self.seeds = seeds


def make_rng(seed: int | Sequence[int]) -> Rng:
    """PCG64 generator; identical seeds give bit-identical draw streams."""
    return np.random.default_rng(seed)


def as_vector(data) -> DenseVector:
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_matrix(data) -> DenseMatrix:
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def matvec(m: DenseMatrix, v: DenseVector) -> DenseVector:
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: matrix {m.shape} incompatible with vector {v.shape}")
    return m @ v


def l2_norm(v: DenseVector) -> float:
    return float(np.linalg.norm(as_vector(v)))


def rng_uniform(rng: Rng, lo: float, hi: float) -> float:
    """One draw, uniform on [lo, hi)."""
    if not lo < hi:
        raise ValueError(f"rng_uniform: need lo < hi, got lo={lo}, hi={hi}")
    return float(rng.uniform(lo, hi))


def require_finite(arr: np.ndarray, what: str = "array", stacked: bool = False) -> np.ndarray:
    """Raise NonFiniteError unless every entry is finite; with stacked, the
    error names the leading-axis slices that are not."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):  # .all() without its wrapper
        seeds = None
        if stacked:
            ok = np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
            seeds = np.flatnonzero(~ok).tolist()
        raise NonFiniteError(f"{what} contains non-finite entries", seeds)
    return arr

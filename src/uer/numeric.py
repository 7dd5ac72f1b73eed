"""Shape and finiteness errors, step buffers and seeded randomness shared
by every module.

Arrays are plain float64 numpy arrays. Every stochastic routine in the
package takes an explicit Rng handle, a numpy PCG64 generator, so a run is
fully determined by its seeds. Importing the package runs NumPy's bundled
OpenBLAS on one thread, so the bits of a product do not depend on the
number of cores either.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from math import isfinite
from typing import Sequence

import numpy as np

Rng = np.random.Generator

# thread-count setters of NumPy's bundled OpenBLAS, by build
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> bool:
    """Run NumPy's bundled OpenBLAS on one thread; True if one was found.

    A threaded matrix-vector product splits its rows among the threads,
    and the kernel sums a row at the end of a thread's share in another
    order than one in the middle, so the rows of A[lo:hi] @ w differ in the
    last bits from the same rows of A @ w (e.g. 1 row of 2305 at 256
    features, two threads). Row-blocked stage scoring is bitwise one pass
    only when a product's rows do not depend on how it is split. Wheels
    keep the library in numpy.libs (Linux, Windows) or numpy/.dylibs
    (macOS); a NumPy built against a system BLAS is left as it is.
    """
    root = Path(np.__file__).parent
    for lib_dir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for name in _BLAS_THREAD_SETTERS:
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter(1)
                    return True
    return False


# False where NumPy uses a system BLAS, whose threads are left as they are
BLAS_ONE_THREAD = _one_blas_thread()


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


class NonFiniteError(FloatingPointError):
    """Values went non-finite. For a block stacked on a leading axis (one
    slice per run), ``seeds`` lists the positions on that axis whose slices
    hold a non-finite entry; otherwise it is None."""

    def __init__(self, message: str, seeds: list[int] | None = None):
        super().__init__(message)
        self.seeds = seeds


class Workspace:
    """Named buffers that a training step or a stage's scoring writes its
    large results into, kept from one step (or row block) to the next. A
    kernel called without one writes into a Workspace of its own.

    ws(name, shape) returns a buffer of that shape: the one last allocated
    under that name, or its leading shape[0] entries (a C-contiguous view),
    if its other dimensions match and it has at least that many; otherwise
    a new uninitialised one, which replaces it (a newly registered class, a
    larger block). Within `with ws.sized(rows):` a new buffer gets at least
    rows entries on its leading axis, so a caller that knows its largest
    block sizes every buffer for it from the start. A name always asks for
    one dtype. A buffer holds whatever the last user that asked for it
    left there.

    Two names are shared by forward_batch, loss_rows and backward_batch,
    so that blocks whose uses do not overlap take one buffer: ("t", width)
    is a rows x width scratch block, dead once the code that filled it has
    read it, and ("g", width) holds the gradient with respect to a layer's
    output, from dL/dH down to each gradient backward_batch passes on.
    """

    __slots__ = ("_bufs", "_rows")

    def __init__(self):
        self._bufs: dict = {}
        self._rows = 0

    def __call__(self, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is not None and buf.shape == shape:  # the common case, checked first
            return buf
        if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
            buf = self._bufs[name] = np.empty((max(shape[0], self._rows), *shape[1:]), dtype)
        return buf if len(buf) == shape[0] else buf[:shape[0]]

    @contextmanager
    def sized(self, rows: int):
        """New buffers get at least rows leading entries until the block exits."""
        before, self._rows = self._rows, rows
        try:
            yield self
        finally:
            self._rows = before


def filled(block: np.ndarray, value) -> np.ndarray:
    """block with value broadcast into it. NumPy runs a ufunc whose operand
    is broadcast (a bias row, a per-row factor) or of another dtype (a bool
    mask) through buffers as large as the block; an operand filled out to
    the block's shape takes the plain loop, with the same arithmetic."""
    np.copyto(block, value)
    return block


def make_rng(seed: int | Sequence[int]) -> Rng:
    """PCG64 generator; identical seeds give bit-identical draw streams."""
    return np.random.default_rng(seed)


def as_vector(data) -> np.ndarray:
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def require_finite(arr: np.ndarray, what: str = "array", stacked: bool = False) -> np.ndarray:
    """Raise NonFiniteError unless every entry is finite; with stacked, the
    error names the leading-axis slices that are not."""
    # the min and the max are nan if any entry is, and infinite if any entry
    # is: two reductions tell, without a temporary of arr's size
    if arr.size and not (isfinite(np.minimum.reduce(arr, axis=None))
                         and isfinite(np.maximum.reduce(arr, axis=None))):
        seeds = None
        if stacked:
            ok = np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
            seeds = np.flatnonzero(~ok).tolist()
        raise NonFiniteError(f"{what} contains non-finite entries", seeds)
    return arr

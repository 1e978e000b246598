"""Symmetric sparse matrices and sparse Cholesky factors.

This is the numerical backbone for everything that touches a precision
matrix: building it from triplets, factorising it, solving against the
factor, and pulling out the diagonal of the inverse.  Storage stays
sparse throughout, and ``chol`` factors in a fill-reducing order, so the
factor of a GMRF precision stays sparse too: ``L L^T = A[perm][:, perm]``.
Every consumer goes through ``solve``, ``solve_lt`` and ``log_det``,
which honour ``perm``.

Symmetry is validated where a matrix comes in from outside, by the
public ``SparseSym(...)`` constructor, which ``sparse_from_triplets``
and user-defined latent models go through.  Precisions that are
symmetric by construction -- each built-in latent model's Q(theta), and
the engine's Q(theta) and Q* assembled on fixed sparsity patterns --
are wrapped by ``SparseSym._trusted``, which only keeps the storage
canonical.  A factor keeps its SuperLU object for ``solve`` until
``without_solver`` drops it; what is left (``L``, ``perm``,
``log_det``) still samples through ``solve_lt``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "FactorizationError",
    "SparseSym",
    "sparse_from_triplets",
    "CholFactor",
    "chol",
]

#: relative tolerance used to decide whether construction input is symmetric
_SYM_TOL = 1e-12


class FactorizationError(ValueError):
    """Raised when a matrix cannot be Cholesky-factorised.

    ``pivot`` is the 0-based elimination step of the first non-positive
    pivot when that is known, else ``None``.  Elimination runs in the
    factor's fill-reducing order, so step k eliminates row ``perm[k]`` of
    the input, which the message names: the leading ``pivot`` x ``pivot``
    block of ``A[perm][:, perm]`` is positive definite and the block one
    row larger is not.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SparseSym:
    """A symmetric sparse matrix of order ``n``.

    Canonical storage is a CSC matrix with summed duplicates and no
    explicit zeros.  Construction validates symmetry to ``1e-12``
    (relative to the largest entry) and then symmetrises exactly, so
    downstream code never sees round-off asymmetry.
    """

    __slots__ = ("n", "csc")

    def __init__(self, matrix):
        m = sp.csc_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("matrix must have order >= 1")
        m.sum_duplicates()
        m.eliminate_zeros()
        gap = abs(m - m.T)
        if gap.nnz:
            worst = gap.max()
            scale = max(1.0, abs(m).max())
            if worst > _SYM_TOL * scale:
                raise ValueError(
                    f"matrix is not symmetric: max |A - A^T| = {worst:g}"
                )
        self.n = m.shape[0]
        self.csc = (m + m.T) * 0.5
        self.csc.sum_duplicates()

    @classmethod
    def _trusted(cls, csc):
        """Wrap a square CSC matrix that is exactly symmetric by construction.

        Nothing is validated, and the caller must not mutate ``csc``
        afterwards.  Storage is made canonical (summed duplicates, sorted
        indices, no explicit zeros) as the public constructor would make
        it; the index arrays are copied before any zero is dropped, so
        a pattern shared with other matrices is never changed.  For an
        exactly symmetric input this gives the same matrix as
        ``SparseSym(csc)``.
        """
        if not csc.has_canonical_format:
            csc.sum_duplicates()
        if not csc.data.all():
            csc = csc.copy()
            csc.eliminate_zeros()
        obj = cls.__new__(cls)
        obj.n = csc.shape[0]
        obj.csc = csc
        return obj

    @classmethod
    def from_dense(cls, arr):
        return cls(sp.csc_matrix(np.asarray(arr, dtype=float)))

    def to_dense(self):
        return self.csc.toarray()

    def diagonal(self):
        return self.csc.diagonal()

    def triplets(self):
        """Return (rows, cols, vals) in canonical (col-major, sorted) order."""
        coo = self.csc.tocoo()
        order = np.lexsort((coo.row, coo.col))
        return coo.row[order], coo.col[order], coo.data[order]

    def __matmul__(self, other):
        return self.csc @ other

    def __repr__(self):
        return f"SparseSym(n={self.n}, nnz={self.csc.nnz})"


def sparse_from_triplets(n, rows, cols, vals):
    """Assemble a SparseSym from COO triplets.

    Duplicate (row, col) entries are summed.  The assembled matrix must
    be symmetric; triplets may describe either the full matrix or any
    redundant scattering of it, as long as the sum comes out symmetric.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols, vals must have identical length")
    if rows.size and (rows.min() < 0 or cols.min() < 0):
        raise ValueError("negative triplet index")
    if rows.size and (rows.max() >= n or cols.max() >= n):
        raise ValueError(
            f"triplet index out of range for n={n}: "
            f"max row {rows.max()}, max col {cols.max()}"
        )
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseSym(m.tocsc())


class CholFactor:
    """Lower-triangular Cholesky factor of a SparseSym in a fill-reducing order.

    The contract is ``L @ L.T == A[perm][:, perm]``: ``L`` (CSC) factors
    the input with its rows and columns permuted by ``perm``, a
    permutation of ``range(n)``.  ``solve`` and ``solve_lt`` undo the
    permutation, so callers see only A: ``solve`` returns A^{-1} rhs and
    ``solve_lt`` returns vectors with covariance A^{-1}.  ``log_det`` is
    the log-determinant of A, which the permutation does not change.

    ``solve`` goes through the SuperLU object, whose workspace is several
    times the size of ``L``; ``without_solver`` returns the factor
    without it, for results that are kept and only sampled from.
    """

    __slots__ = ("n", "L", "perm", "log_det", "_splu")

    def __init__(self, n, L, perm, log_det, splu_obj):
        self.n = n
        self.L = L
        self.perm = perm
        self.log_det = log_det
        self._splu = splu_obj

    def _columns(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        b = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        return b, rhs.ndim == 1

    def without_solver(self):
        """This factor without its SuperLU object: ``solve_lt``, ``L``,
        ``perm`` and ``log_det`` still work, ``solve`` raises."""
        return CholFactor(self.n, self.L, self.perm, self.log_det, None)

    def solve(self, rhs):
        """Solve A x = rhs for one vector or a matrix of columns."""
        if self._splu is None:
            raise ValueError(
                "this factor was kept without its solver; factorise the "
                "matrix again with chol() to solve"
            )
        b, vec = self._columns(rhs)
        x = self._splu.solve(np.ascontiguousarray(b))
        return x[:, 0] if vec else x

    def solve_lt(self, rhs):
        """Solve L^T y = rhs and return x with x[perm] = y.

        If rhs is standard normal, y has covariance (P A P^T)^{-1} and
        x = P^T y has covariance A^{-1}, which is exactly what posterior
        sampling needs.
        """
        b, vec = self._columns(rhs)
        y = spla.spsolve_triangular(self.L.T, b, lower=False)
        x = np.empty_like(y)
        x[self.perm] = y
        return x[:, 0] if vec else x

    def diag_inverse(self):
        """Diagonal of A^{-1}, via n solves against unit vectors."""
        inv = self.solve(np.eye(self.n))
        return inv.diagonal().copy()


def chol(a):
    """Cholesky-factorise a SparseSym in a fill-reducing order, or raise.

    Precision matrices here are sparse but often have a dense row and
    column, such as an intercept as latent 0; factorised in the given
    order, that row fills the whole factor.  SuperLU's minimum-degree
    ordering on A^T + A (``MMD_AT_PLUS_A``) eliminates such rows last,
    so the factor keeps roughly the sparsity of A (Rue & Held 2005,
    *GMRFs*, section 2.4.1).  The LU factorisation is restricted to
    diagonal pivots with the same row and column order, so for a
    symmetric positive-definite input U = D L^T and the Cholesky factor
    of A[perm][:, perm] is L sqrt(D).  A non-positive pivot means the
    input is not positive definite and is reported by elimination step.
    """
    if not isinstance(a, SparseSym):
        raise TypeError("chol expects a SparseSym")
    try:
        lu = spla.splu(
            a.csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise FactorizationError(f"factorisation failed: {err}") from err
    if not np.array_equal(lu.perm_r, lu.perm_c):
        # diagonal pivoting keeps rows and columns in one order; guard so
        # that an off-diagonal pivot never leaks into a "Cholesky" factor
        raise FactorizationError("factorisation produced an unexpected permutation")
    perm = np.argsort(lu.perm_c)
    d = lu.U.diagonal()
    bad = np.where(~(d > 0.0))[0]
    if bad.size:
        k = int(bad[0])
        raise FactorizationError(
            f"matrix is not positive definite: pivot {k} (row {perm[k]}) is {d[k]:g}",
            pivot=k,
        )
    # lu.L is a CSC copy of the unit-diagonal factor that lu.solve never
    # reads; scale its column j by sqrt(d_j) in place
    L = lu.L
    L.data *= np.repeat(np.sqrt(d), np.diff(L.indptr))
    log_det = float(np.sum(np.log(d)))
    return CholFactor(a.n, L, perm, log_det, lu)

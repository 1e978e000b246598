"""Symmetric sparse matrices and sparse Cholesky factors.

This is the numerical backbone for everything that touches a precision
matrix: building it from triplets, factorising it, solving against the
factor, and pulling out the diagonal of the inverse.  Storage stays
sparse throughout, and ``chol`` factors in a fill-reducing order, so the
factor of a GMRF precision stays sparse too: ``L L^T = A[perm][:, perm]``.
Every consumer goes through ``solve``, ``solve_lt`` and ``log_det``,
which honour ``perm``.

A factorisation has a symbolic half that depends on the sparsity pattern
alone -- the fill-reducing order, and where each stored entry lands in
the permuted matrix -- and a numeric half.  A ``CholPlan`` holds the
symbolic half of one pattern, computed once; ``chol`` gathers the
matrix's data into the permuted pattern and factors it in natural order.
The owner of a pattern that is refilled many times (the engine's Q(theta)
and Q*) keeps one plan and attaches it to each SparseSym it builds;
``chol`` on a matrix without a plan makes a plan for it first, so every
factorisation runs the same numeric code.

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
    "CholPlan",
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
    downstream code never sees round-off asymmetry.  ``plan`` is the
    ``CholPlan`` of the matrix's pattern when its builder keeps one, else
    None.
    """

    __slots__ = ("n", "csc", "plan")

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
        self.plan = None

    @classmethod
    def _trusted(cls, csc, plan=None):
        """Wrap a square CSC matrix that is exactly symmetric by construction.

        Nothing is validated, and the caller must not mutate ``csc``
        afterwards.  Storage is made canonical (summed duplicates, sorted
        indices, no explicit zeros) as the public constructor would make
        it; the index arrays are copied before any zero is dropped, so
        a pattern shared with other matrices is never changed.  For an
        exactly symmetric input this gives the same matrix as
        ``SparseSym(csc)``.  ``plan`` must be the plan of ``csc``'s
        pattern; it is attached only if that pattern is kept as it is.
        """
        if not csc.has_canonical_format:
            csc.sum_duplicates()
            plan = None
        if not csc.data.all():
            csc = csc.copy()
            csc.eliminate_zeros()
            plan = None
        obj = cls.__new__(cls)
        obj.n = csc.shape[0]
        obj.csc = csc
        obj.plan = plan
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

    ``solve`` goes through the SuperLU object, which factors A
    pre-permuted by its ``CholPlan``; its workspace is several times the
    size of ``L``, and ``without_solver`` returns the factor without it,
    for results that are kept and only sampled from.
    """

    __slots__ = ("n", "L", "perm", "log_det", "_splu", "_plan")

    def __init__(self, n, L, perm, log_det, splu_obj, plan):
        self.n = n
        self.L = L
        self.perm = perm
        self.log_det = log_det
        self._splu = splu_obj
        self._plan = plan

    def _columns(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        b = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        return b, rhs.ndim == 1

    def without_solver(self):
        """This factor without its SuperLU object: ``solve_lt``, ``L``,
        ``perm`` and ``log_det`` still work, ``solve`` raises."""
        return CholFactor(self.n, self.L, self.perm, self.log_det, None, None)

    def _solver(self):
        if self._splu is None:
            raise ValueError(
                "this factor was kept without its solver; factorise the "
                "matrix again with chol() to solve"
            )
        return self._splu

    def solve(self, rhs):
        """Solve A x = rhs for one vector or a matrix of columns."""
        b, vec = self._columns(rhs)
        x = self._solver().solve(b[self._plan.perm])[self._plan.inverse]
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
        """Diagonal of A^{-1}, via n solves against unit vectors.

        The SuperLU object factors B = A[perm][:, perm] for the plan's
        ``perm``, and diag(A^{-1})[perm] = diag(B^{-1}), so the unit
        vectors need no permuting."""
        d = np.empty(self.n)
        d[self._plan.perm] = self._solver().solve(np.eye(self.n)).diagonal()
        return d


def _splu(csc, permc_spec):
    # diagonal pivots only, rows and columns in one order: for a symmetric
    # positive-definite input, U = D L^T.  Factors in a fill-reducing order
    # are too sparse for SuperLU's panels and relaxed supernodes to pay:
    # panel size 1 and relaxation 1 factor Q* of the c5 joint model
    # (n = 103) and of 12x12 and 30x30 BYM lattices (n = 289, 1 801)
    # 25-35 % faster than the defaults, with the same nonzeros in L.
    return spla.splu(
        csc,
        permc_spec=permc_spec,
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
        panel_size=1,
        relax=1,
    )


class CholPlan:
    """The symbolic half of ``chol`` for every matrix on one sparsity pattern.

    ``perm`` is SuperLU's ``MMD_AT_PLUS_A`` order: a minimum-degree order
    of the pattern of A^T + A, post-ordered along its elimination tree.
    It depends on the pattern alone, so it is taken from one
    factorisation of a diagonally dominant stand-in on the same pattern,
    which cannot fail; a pattern without its whole diagonal belongs to
    no positive-definite matrix and raises ``FactorizationError``.
    ``inverse`` is the inverse permutation.  The gather takes a matrix's
    CSC ``data`` to the CSC data of ``A[perm][:, perm]``, which is
    written into one CSC matrix kept for the purpose (SuperLU copies
    what it factors).  All are computed on first use, until which
    ``perm`` is None.

    The plan keeps the pattern's CSC ``indptr`` and ``indices`` arrays,
    which must not be changed afterwards.
    """

    __slots__ = ("n", "indptr", "indices", "perm", "inverse", "_gather", "_permuted")

    def __init__(self, indptr, indices):
        self.n = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.perm = None

    def permuted(self, data):
        """``A[perm][:, perm]`` for the matrix with this pattern and CSC
        ``data``; the returned matrix is overwritten by the next call."""
        if self.perm is None:
            self._analyse()
        np.take(data, self._gather, out=self._permuted.data)
        return self._permuted

    def _analyse(self):
        n = self.n
        rows = self.indices
        cols = np.repeat(np.arange(n), np.diff(self.indptr))
        diagonal = rows == cols
        if np.count_nonzero(diagonal) < n:
            raise FactorizationError(
                "matrix is not positive definite: a diagonal entry is zero"
            )
        # off-diagonal entries 1, diagonal n: strictly diagonally dominant,
        # so positive definite whatever the pattern
        stand_in = sp.csc_matrix(
            (np.where(diagonal, float(n), 1.0), rows, self.indptr), shape=(n, n)
        )
        perm = np.argsort(_splu(stand_in, "MMD_AT_PLUS_A").perm_c)
        inverse = np.argsort(perm)
        r, c = inverse[rows], inverse[cols]
        gather = np.lexsort((r, c))  # column-major, rows sorted
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
        self._permuted = sp.csc_matrix(
            (np.empty(rows.size), r[gather].astype(np.intc), indptr), shape=(n, n)
        )
        self._gather = gather
        self.perm, self.inverse = perm, inverse


def chol(a):
    """Cholesky-factorise a SparseSym in a fill-reducing order, or raise.

    Precision matrices here are sparse but often have a dense row and
    column, such as an intercept as latent 0; factorised in the given
    order, that row fills the whole factor.  SuperLU's minimum-degree
    ordering on A^T + A (``MMD_AT_PLUS_A``) eliminates such rows last,
    so the factor keeps roughly the sparsity of A (Rue & Held 2005,
    *GMRFs*, section 2.4.1).  That order comes from the matrix's
    ``CholPlan`` (a fresh one when ``a.plan`` is None), and the matrix,
    pre-permuted by it, is factorised in natural order; any column order
    SuperLU still applies is composed into ``perm``.  The LU
    factorisation is restricted to diagonal pivots with the same row and
    column order, so for a symmetric positive-definite input U = D L^T
    and the Cholesky factor of A[perm][:, perm] is L sqrt(D).  A
    non-positive pivot means the input is not positive definite and is
    reported by elimination step.
    """
    if not isinstance(a, SparseSym):
        raise TypeError("chol expects a SparseSym")
    plan = a.plan if a.plan is not None else CholPlan(a.csc.indptr, a.csc.indices)
    b = plan.permuted(a.csc.data)
    try:
        lu = _splu(b, "NATURAL")
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise FactorizationError(f"factorisation failed: {err}") from err
    perm_c = lu.perm_c
    if not np.array_equal(lu.perm_r, perm_c):
        # diagonal pivoting keeps rows and columns in one order; guard so
        # that an off-diagonal pivot never leaks into a "Cholesky" factor
        raise FactorizationError("factorisation produced an unexpected permutation")
    perm = plan.perm[np.argsort(perm_c)]
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
    return CholFactor(a.n, L, perm, log_det, lu, plan)

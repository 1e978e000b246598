"""Symmetric sparse matrices and sparse Cholesky factors.

This is the numerical backbone for everything that touches a precision
matrix: building it from triplets, factorising it, solving against the
factor, and reading entries of the inverse off the factor.  Storage
stays sparse throughout, and ``chol`` factors in a fill-reducing order,
so the factor of a GMRF precision stays sparse too:
``L L^T = A[perm][:, perm]``.  Every consumer goes through ``solve``,
``solve_lt``, ``selected_inverse`` and ``log_det``, which honour
``perm``.

A factorisation has a symbolic half that depends on the sparsity pattern
alone -- the fill-reducing order, where each stored entry lands in the
permuted matrix, and the pattern of the factor -- and a numeric half.  A
``CholPlan`` holds the symbolic half of one pattern, computed once;
``chol`` gathers the matrix's data into the permuted pattern and factors
it in the plan's order, which SuperLU keeps as it is.
The owner of a pattern that is refilled many times (the engine's Q(theta)
and Q*) keeps one plan and attaches it to each SparseSym it builds;
``chol`` on a matrix without a plan makes a plan for it first, so every
factorisation runs the same numeric code.

The layer calls three private entry points of scipy, two of its
``_superlu`` module and one of its ``_sparsetools`` module, each pinned
bit for bit to its public route by a parity test in
``tests/test_sparse.py``:

- ``chol`` calls ``gstrf``, the entry point behind ``spla.splu``,
  because only there can it ask for L and U as raw CSC arrays: ``splu``
  hands both out as ``csc_array``s, whose construction cost about a
  third of a small factorisation.  ``chol`` reads the pivots off U's raw
  arrays and checks them; L stays raw, and the factor builds and scales
  its CSC matrix on the first read of ``L``, so a factor that is only
  solved with (a Newton step's) builds none.
  (``TestPrivateFactorisation``.)
- ``solve_lt`` calls ``gstrs``, the entry point behind scipy's
  ``spsolve_triangular``, on arrays its factor prepares from ``L`` on
  its first ``solve_lt`` and keeps.  The public route rebuilds those
  arrays, through scipy matrices and their validation, at every call:
  on the 12 x 12 BYM factor that was about nine tenths of a 7-column
  solve.  (``TestPrivateTriangularSolve``.)
- ``matmul`` calls ``_sparsetools``' ``csr_matvec``/``csr_matvecs`` or
  ``csc_matvec``/``csc_matvecs``, the routines behind scipy's ``@`` of a
  sparse matrix and a dense operand, on raw ``(indptr, indices, data)``
  arrays: the engine's products with B, B^T and Q(theta), several per
  Newton step, then build and dispatch no scipy matrix.
  (``TestPrivateProduct``.)  The selected inverse's sweep calls
  ``csr_matvecs`` too, for its sums, which it pins to sums in order by
  ``np.bincount`` (``TestBlockedSweep``).

The selected inverse (grid points' variances, the KL diagnostic) and a
factor's first ``solve_lt`` read ``L``; so does a bench run with
``--trace 1``, whose per-call nnz(L) count therefore builds L at every
``chol``.

A SparseSym is its CSC arrays: ``data``, ``indptr`` and ``indices``.
One built on a pattern its owner keeps (``SparseSym._on_pattern``: the
engine's Q(theta) and Q*, and the built-in latent precisions) holds the
pattern's own index arrays and builds its scipy matrix, ``csc``, only
when something reads it; ``chol`` reads ``data`` and ``plan`` alone, so
a Newton step's Q* is factorised without a scipy matrix of its own, and
its product with a dense vector or block (``@``) is a ``matmul`` call on
its arrays.  It keeps its exact zeros, so its pattern and plan do not
follow the values.

The entries of A^{-1} on the pattern of the symbolic factor -- its
diagonal, and every entry that A's own pattern holds -- come from the
Takahashi recursions (Takahashi, Fagan & Chin 1973; Rue & Martino 2007,
section 2), without a solve or an n x n array.  Column k of the inverse
below the diagonal needs only columns that are ancestors of k in the
elimination tree, so all columns at one depth of the tree are computed
together, root first.  That schedule depends on the plan's pattern
alone: the plan lays it out once, on the symbolic factor, and
``CholPlan.selected_inverses`` reads the L of each factor of a block
into it (an entry that elimination cancelled out of L reads 0) and runs
one vectorised sweep per depth level for the whole block; a factor's
``selected_inverse`` is a block of one.  Where each entry of L lands in
the schedule is mapped once per L pattern and kept: every factor of a
plan whose L has the same index arrays reuses the map, and an L that
lacks an entry is searched for instead.  A block's sums run, for each
factor, in the order a block of one runs them, so each factor's
entries are bit for bit the same in any block.  ``inverse_slots`` looks
up where entries of A^{-1} are kept, which a caller that reads the same
entries of many factors (the engine's Q* pattern) does once.

Symmetry is validated where a matrix comes in from outside, by the
public ``SparseSym(...)`` constructor, which ``sparse_from_triplets``
and user-defined latent models go through.  Precisions that are
symmetric by construction -- each built-in latent model's Q(theta), and
the engine's Q(theta) and Q* assembled on fixed sparsity patterns --
are wrapped by ``SparseSym._on_pattern`` (or ``SparseSym._trusted``,
from a scipy matrix), which keeps the pattern as it is given.  A factor
keeps its SuperLU object for ``solve`` until ``without_solver`` drops
it; what is left (``L``, built then, ``perm``, ``log_det``) still
samples through ``solve_lt`` and gives the selected inverse.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

__all__ = [
    "FactorizationError",
    "SparseSym",
    "sparse_from_triplets",
    "CholFactor",
    "CholPlan",
    "chol",
    "matmul",
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

    Canonical storage is CSC with summed duplicates and sorted indices,
    held as the arrays ``data``, ``indptr`` and ``indices``; ``csc`` is
    the scipy matrix on them, built when it is first read.  The public
    constructor drops explicit zeros, validates symmetry to ``1e-12``
    (relative to the largest entry) and then symmetrises exactly, so
    downstream code never sees round-off asymmetry.  ``plan`` is the
    ``CholPlan`` of the matrix's pattern when its builder keeps one.
    """

    __slots__ = ("n", "data", "indptr", "indices", "plan", "_csc")

    def __init__(self, matrix):
        m = sp.csc_matrix(matrix, copy=True)  # dropping zeros must not touch a kept pattern
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
        csc = (m + m.T) * 0.5
        csc.sum_duplicates()
        self.n = csc.shape[0]
        self.data, self.indptr, self.indices = csc.data, csc.indptr, csc.indices
        self.plan = None
        self._csc = csc

    @classmethod
    def _on_pattern(cls, data, indptr, indices, plan=None):
        """The matrix with CSC ``data`` on a canonical pattern that is
        exactly symmetric by construction, its ``csc`` not yet built.

        Nothing is validated, and the caller must change none of the
        arrays afterwards.  The pattern is kept as it is, with any exact
        zeros in ``data`` stored, so that every matrix built on it shares
        its arrays and ``plan``, the pattern's ``CholPlan``.
        """
        obj = cls.__new__(cls)
        obj.n = len(indptr) - 1
        obj.data, obj.indptr, obj.indices = data, indptr, indices
        obj.plan = plan
        obj._csc = None
        return obj

    @classmethod
    def _trusted(cls, csc, plan=None):
        """Wrap a square CSC matrix that is exactly symmetric by construction.

        Nothing is validated, and the caller must not mutate ``csc``
        afterwards.  Storage is made canonical as the public constructor
        would make it, but stored zeros are kept, so for an exactly
        symmetric input without them this gives ``SparseSym(csc)``.
        ``plan`` must be the plan of ``csc``'s pattern; it is attached
        only if that pattern is kept as it is.
        """
        if not csc.has_canonical_format:
            csc.sum_duplicates()
            plan = None
        obj = cls._on_pattern(csc.data, csc.indptr, csc.indices, plan)
        obj._csc = csc
        return obj

    @property
    def csc(self):
        """The matrix as a scipy CSC matrix on its arrays, built on first use."""
        if self._csc is None:
            self._csc = sp.csc_matrix(
                (self.data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._csc

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
        """A x for a dense vector or block through ``matmul``, without
        building ``csc``; anything else through ``csc``."""
        if isinstance(other, np.ndarray):
            return matmul("csc", self.indptr, self.indices, self.data, (self.n, self.n), other)
        return self.csc @ other

    def __repr__(self):
        return f"SparseSym(n={self.n}, nnz={self.data.size})"


_MATVEC = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}
_MATVECS = {"csr": _sparsetools.csr_matvecs, "csc": _sparsetools.csc_matvecs}


def matmul(fmt, indptr, indices, data, shape, x):
    """M x for the (m, n) sparse matrix M with CSR (``fmt`` "csr") or CSC
    ("csc") arrays and a dense vector or (n, k) block ``x``, bit for bit
    scipy's ``M @ x``, with no scipy matrix.

    It makes the call that scipy's ``@`` makes after its dispatch: the
    ``_sparsetools`` routine ``<fmt>_matvec``, for a vector or an (n, 1)
    block, or ``<fmt>_matvecs``, on a zero-initialised float64 output and
    ``x`` as a C-contiguous float64 array.  ``indptr`` and ``indices``
    should share one integer type, or the routine converts them at every
    call.  A matrix's CSR arrays are its transpose's CSC arrays, so
    M^T g is ``matmul("csc", indptr, indices, data, (n, m), g)``.
    """
    m, n = shape
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"operand has shape {x.shape}, expected ({n},) or ({n}, k)")
    if x.ndim == 1 or x.shape[1] == 1:
        out = np.zeros(m)
        _MATVEC[fmt](m, n, indptr, indices, data, x.ravel(), out)
        return out if x.ndim == 1 else out[:, None]
    k = x.shape[1]
    out = np.zeros((m, k))
    _MATVECS[fmt](m, n, k, indptr, indices, data, x.ravel(), out.ravel())
    return out


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
    the input with its rows and columns permuted by ``perm``, the order
    of the factor's ``CholPlan``.  ``solve`` and ``solve_lt`` undo the
    permutation, so callers see only A: ``solve`` returns A^{-1} rhs and
    ``solve_lt`` returns vectors with covariance A^{-1}.  ``log_det`` is
    the log-determinant of A, which the permutation does not change.

    ``solve`` goes through the SuperLU object, which factors A
    pre-permuted by its ``CholPlan``; its workspace is several times the
    size of ``L``, and ``without_solver`` returns the factor without it,
    for results that are kept and only sampled from.  ``selected_inverse``
    and ``diag_inverse`` read ``L`` alone, so they work either way.

    Given ``pivots``, ``L`` arrives as SuperLU's unit-diagonal factor in
    raw CSC arrays ``(data, indices, indptr)``, a copy that the SuperLU
    object never reads again.  The first read of ``L`` builds its CSC
    matrix and scales column j by sqrt(pivots[j]) in place, and later
    reads return that same matrix, so a factor that is only solved with
    (a Newton step's) builds no scipy matrix at all.

    ``solve_lt`` hands SuperLU's ``gstrs`` arrays that its first call
    prepares from ``L`` (``_prepare_lt``) and keeps, about one float per
    entry of L, so that later calls build nothing.  Preparing
    sorts L's rows within each column in place, which changes no entry;
    a factor that is never sampled from prepares nothing.
    """

    __slots__ = ("n", "log_det", "_L", "_pivots", "_splu", "_plan", "_lt")

    def __init__(self, n, L, log_det, splu_obj, plan, pivots=None):
        self.n = n
        self._L = L
        self._pivots = pivots
        self.log_det = log_det
        self._splu = splu_obj
        self._plan = plan
        self._lt = None

    @property
    def perm(self):
        """The fill-reducing order: its plan's."""
        return self._plan.perm

    @property
    def L(self):
        """The lower-triangular factor, CSC, built on first read."""
        if self._pivots is not None:
            data, indices, indptr = self._L
            # SuperLU sizes its arrays before dropping entries that
            # cancelled to zero, so they can run past indptr[-1]
            data, indices = data[: indptr[-1]], indices[: indptr[-1]]
            data *= np.repeat(np.sqrt(self._pivots), np.diff(indptr))
            self._L = sp.csc_array((data, indices, indptr), shape=(self.n, self.n))
            self._pivots = None
        return self._L

    def _columns(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        b = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        return b, rhs.ndim == 1

    def without_solver(self):
        """This factor without its SuperLU object: ``solve_lt``,
        ``selected_inverse``, ``L``, ``perm`` and ``log_det`` still work,
        ``solve`` raises.  The two share ``L`` and, once either has been
        sampled from, the arrays ``solve_lt`` prepares on it."""
        lean = CholFactor(self.n, self.L, self.log_det, None, self._plan)
        lean._lt = self._lt
        return lean

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
        data, indices, indptr, invdiag, empty_u = self._lt or self._prepare_lt()
        n = self.n
        y, info = _superlu.gstrs("T", n, data.size, data, indices, indptr, n, 0, *empty_u, b)
        if info:
            raise FactorizationError(f"triangular solve failed: SuperLU info {info}")
        y *= invdiag[:, None]
        x = np.empty_like(y)
        x[self.perm] = y
        return x[:, 0] if vec else x

    def _prepare_lt(self):
        """The arrays ``solve_lt`` hands SuperLU's ``gstrs``, made once:
        the ones scipy's ``spsolve_triangular(L.T, b, lower=False)`` builds
        at every call.  They are L with row i scaled by
        ``invdiag[i] = 1 / L[i, i]`` (unit diagonal, up to rounding), its
        rows sorted within each column, and an empty U; ``gstrs`` solves
        with the transpose of L U, and the result is scaled by
        ``invdiag``.  L's own indices are sorted in place and shared,
        which changes no entry of L."""
        L = self.L
        L.sort_indices()
        indices = L.indices.astype(np.intc, copy=False)
        indptr = L.indptr.astype(np.intc, copy=False)
        invdiag = 1.0 / L.data[indptr[:-1]]  # sorted, a column starts at its diagonal
        empty_u = (np.empty(0), np.empty(0, dtype=np.intc), np.zeros(self.n + 1, dtype=np.intc))
        self._lt = (L.data * invdiag[indices], indices, indptr, invdiag, empty_u)
        return self._lt

    def selected_inverse(self, rows=(), cols=()):
        """Entries of A^{-1} from the Takahashi recursions on ``L``.

        Returns the diagonal of A^{-1}, and its entries at the index pairs
        ``(rows[i], cols[i])``, which must lie in the pattern of the plan's
        symbolic factor; that pattern holds A's, and a pair outside it
        raises ``ValueError``.  No solve is made and no n x n array
        formed: Sigma takes one value per entry of the symbolic factor,
        and the plan's schedule one index triple per pair of entries
        below the diagonal of one of its columns.
        """
        plan = self._plan
        slots = plan.inverse_slots(rows, cols) if len(rows) else ()
        d, entries = plan.selected_inverses([self], slots)
        return d[0], entries[0]

    def diag_inverse(self):
        """Diagonal of A^{-1}: the diagonal of ``selected_inverse``."""
        return self.selected_inverse()[0]


# diagonal pivots only, rows and columns in one order: for a symmetric
# positive-definite input, U = D L^T.  Factors in a fill-reducing order
# are too sparse for SuperLU's panels and relaxed supernodes to pay:
# panel size 1 and relaxation 1 factor Q* of the c5 joint model
# (n = 103) and of 12x12 and 30x30 BYM lattices (n = 289, 1 801)
# 25-35 % faster than the defaults, with the same nonzeros in L.
_SUPERLU_OPTIONS = {"DiagPivotThresh": 0.0, "SymmetricMode": True, "PanelSize": 1, "Relax": 1}
_NATURAL_OPTIONS = dict(_SUPERLU_OPTIONS, ColPerm="NATURAL")


def _splu(csc, permc_spec):
    """``spla.splu`` with ``chol``'s SuperLU options and the column order
    ``permc_spec``: the public route to the factorisation ``chol`` makes."""
    return spla.splu(csc, options=dict(_SUPERLU_OPTIONS, ColPerm=permc_spec))


def _raw_csc(arrays, shape):
    """SuperLU's hand-out of L or U as it comes: the CSC arrays
    ``(data, indices, indptr)`` and the shape, with no scipy matrix."""
    return arrays, shape


def _same_pattern(indptr, indices, ref_indptr, ref_indices):
    """Whether CSC index arrays hold the reference pattern; arrays that are
    the reference's own are not compared entry by entry."""
    return (indptr is ref_indptr or np.array_equal(indptr, ref_indptr)) and (
        indices is ref_indices or np.array_equal(indices, ref_indices)
    )


def _unique_keys(keys):
    """``np.unique`` of an integer array, by a sort and a neighbour compare:
    the same sorted array, without numpy's hash table for integers, which
    is many times slower on the keys of a pattern."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


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

    The stand-in's factor, united with A's permuted lower triangle, is
    the symbolic factor of every matrix on the pattern: each factor's L
    holds at most its entries.  ``schedule``, the symbolic half of the
    selected inverse (``_InverseSchedule``), is laid out on it once, on
    first read, and serves every factor of the plan.

    The plan keeps the pattern's CSC ``indptr`` and ``indices`` arrays,
    which must not be changed afterwards.
    """

    __slots__ = (
        "n", "indptr", "indices", "perm", "inverse", "_gather", "_permuted", "_stand_in_l",
        "_schedule",
    )

    def __init__(self, indptr, indices):
        self.n = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.perm = None
        self._schedule = None

    @property
    def schedule(self):
        """The ``_InverseSchedule`` of every factor on this plan, laid out
        on the symbolic factor's pattern when first read."""
        if self._schedule is None:
            if self.perm is None:
                self._analyse()
            # the lower triangles of the stand-in's L and of A[perm][:, perm]:
            # A's entries, and the schedule's closure, restore any entry
            # that cancelled in the stand-in
            n, b = self.n, self._permuted
            keys = np.concatenate([
                np.repeat(np.arange(n), np.diff(indptr)) * n + indices[: indptr[-1]]
                for indices, indptr in (self._stand_in_l, (b.indices, b.indptr))
            ])
            self._schedule = _InverseSchedule(n, _unique_keys(keys[keys % n >= keys // n]))
        return self._schedule

    def inverse_slots(self, rows, cols):
        """Where the selected inverse keeps the entries ``(rows[i],
        cols[i])`` of A^{-1}, for ``selected_inverses``; a pair outside
        the symbolic factor's pattern raises ``ValueError``."""
        r = self.inverse[np.asarray(rows, dtype=np.int64)]
        c = self.inverse[np.asarray(cols, dtype=np.int64)]
        # entry (max, min) of the lower triangle, keyed column-major
        return self.schedule.find(np.minimum(r, c) * self.n + np.maximum(r, c))

    def selected_inverses(self, factors, slots=()):
        """``(D, E)`` for a block of factors of matrices A_f on this plan,
        from one sweep of the Takahashi recursions over the whole block:
        row f of D is the diagonal of A_f^{-1}, and row f of E its entries
        at ``slots`` (``inverse_slots``).  Each row is bit for bit what
        the factor gets in a block of its own."""
        if any(f._plan is not self for f in factors):
            raise ValueError("every factor of a block must be on this plan")
        schedule = self.schedule
        sigma = schedule.sweep([f.L for f in factors])
        d = np.empty((len(factors), self.n))
        d[:, self.perm] = sigma[schedule.diagonal].T
        entries = sigma.take(np.asarray(slots, dtype=np.int64), axis=0)
        return d, np.ascontiguousarray(entries.T)

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
        lu = _superlu.gstrf(
            n, rows.size, np.where(diagonal, float(n), 1.0),
            rows.astype(np.intc), self.indptr.astype(np.intc),
            csc_construct_func=_raw_csc, ilu=False,
            options=dict(_SUPERLU_OPTIONS, ColPerm="MMD_AT_PLUS_A"),
        )
        perm = np.argsort(lu.perm_c)
        inverse = np.argsort(perm)
        r, c = inverse[rows], inverse[cols]
        self._stand_in_l = lu.L[0][1:]  # its indices and indptr, in the plan's order
        gather = np.lexsort((r, c))  # column-major, rows sorted
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
        self._permuted = sp.csc_matrix(
            (np.empty(rows.size), r[gather].astype(np.intc), indptr), shape=(n, n)
        )
        self._gather = gather
        self.perm, self.inverse = perm, inverse


class _InverseSchedule:
    """The symbolic half of the selected inverse of the Cholesky factors
    on one pattern.

    Sigma = (L L^T)^{-1} satisfies the Takahashi recursions: for column k,
    with S the rows below the diagonal of L[:, k] and l_i = L[i, k] / L[k, k],

        Sigma[j, k] = -sum_{i in S} l_i Sigma[i, j]  for j in S,
        Sigma[k, k] = 1 / L[k, k]^2 - sum_{j in S} l_j Sigma[j, k].

    Every Sigma[i, j] on the right lies in a column that is an ancestor of
    k in the elimination tree (parent(k) = min S), so the columns at one
    depth of the tree do not depend on each other, and a sweep from the
    root down computes a whole depth level at a time.

    The recursions need a closed pattern: entries below the diagonal of
    one column in rows i and j need entry (max(i, j), min(i, j)).  The
    symbolic factor's pattern is closed; the keys given are grown by
    what they lack until they are, in case an entry cancelled in the
    factor they were read from.  A factor's L holds at most the
    pattern's entries, and one it lacks reads 0.

    Entries are keyed ``column * n + row`` on the lower triangle, in
    ``keys`` (sorted); ``slot`` takes a key's index to its storage slot,
    ``diagonal`` a column to its diagonal's slot, and ``diag_of`` a slot
    to the diagonal slot of its column.
    Storage puts each depth level together, root first: the level's
    entries below the diagonal, then its diagonal entries.  ``levels``
    holds, per level, the storage bounds ``(o0, o1, d1)`` of those two
    runs, the level's pairs (i, j) in S x S and two sums.  Pair p adds l
    at slot ``pair_l[p]`` times Sigma at slot ``pair_sigma[p]`` to the
    sum for an entry below the diagonal; a level's pairs come in storage
    order of that entry, and its entries below the diagonal in order of
    their column, so each sum runs over consecutive terms, and the level
    keeps the bounds of each sum as a CSR row pointer: ``out_ptr`` over
    the level's pairs, ``diag_ptr`` over its entries below the diagonal
    (whose sums give the diagonal run).

    ``sweep`` reads each factor's L into storage through a map from L's
    storage to slots, kept for one L pattern (``_l_map``).
    """

    __slots__ = (
        "n", "keys", "slot", "diagonal", "diag_of", "levels", "_off_diagonal", "_ones", "_l_map",
    )

    def __init__(self, n, keys):
        self.n = n
        while (missing := self._lay_out(keys)) is not None:
            keys = _unique_keys(np.concatenate([keys, missing]))
        self.keys = keys
        self._l_map = None

    def _lay_out(self, keys):
        """Lay the recursions out on the sorted lower-triangle ``keys``
        (diagonal included), or return the keys they need and lack."""
        n = self.n
        rows, cols = keys % n, keys // n
        start = np.searchsorted(keys, np.arange(n + 1) * n)  # column bounds
        below = np.diff(start) - 1  # a column's diagonal comes first
        has = below > 0
        up = np.full(n, -1)
        up[has] = rows[start[:-1][has] + 1]  # the elimination tree's parent
        # depth by pointer jumping: depth[k] is the distance from k to
        # up[k], or to its root once up[k] is -1
        depth = has.astype(np.int64)
        while (live := np.flatnonzero(up >= 0)).size:
            ahead = up[live]
            depth[live] += depth[ahead]
            up[live] = up[ahead]

        level = depth[cols]
        on_diag = rows == cols
        storage = np.lexsort((on_diag, level))  # slot -> key index
        n_levels = int(depth.max()) + 1
        runs = np.empty(2 * n_levels, dtype=np.int64)
        runs[0::2] = np.bincount(level[~on_diag], minlength=n_levels)
        runs[1::2] = np.bincount(depth, minlength=n_levels)
        edges = np.concatenate([[0], np.cumsum(runs)])

        # pairs (a, b) of entries below the diagonal of one column, in
        # storage order of a, so that each level's pairs are contiguous
        off = storage[~on_diag[storage]]
        reps = below[cols[off]]
        a = np.repeat(off, reps)
        b = np.repeat(start[cols[off]] + 1 - np.cumsum(reps) + reps, reps) + np.arange(a.size)
        ra, rb = rows[a], rows[b]
        need = np.minimum(ra, rb) * n + np.maximum(ra, rb)
        at = np.minimum(np.searchsorted(keys, need), keys.size - 1)
        lacking = keys[at] != need
        if lacking.any():
            return need[lacking]

        slot = np.empty(keys.size, dtype=np.int64)
        slot[storage] = np.arange(keys.size)
        self.slot = slot
        self.diagonal = slot[start[:-1]]  # by column
        self.diag_of = self.diagonal[cols[storage]]  # by slot
        self._off_diagonal = self.diag_of != np.arange(keys.size)
        col_local = self.diag_of - edges[1::2][level[storage]]
        out = slot[a]
        pair_sigma, pair_l = slot[at], slot[b]
        p_edges = np.searchsorted(out, edges)
        e, p = edges.tolist(), p_edges.tolist()
        self.levels = []
        for k in range(1, n_levels):  # depth 0: roots alone, nothing to sum
            o0, o1, d1, p0, p1 = e[2 * k], e[2 * k + 1], e[2 * k + 2], p[2 * k], p[2 * k + 1]
            self.levels.append((
                o0, o1, d1, pair_l[p0:p1], pair_sigma[p0:p1],
                np.searchsorted(out[p0:p1], np.arange(o0, o1 + 1)),
                np.searchsorted(col_local[o0:o1], np.arange(d1 - o1 + 1)),
            ))
        # the column indices and values of the sums' CSR rows: every term
        # is taken once, times 1
        widest = max((level[3].size for level in self.levels), default=0)
        self._ones = np.arange(widest), np.ones(widest)
        return None

    def find(self, wanted):
        """Storage slots of the lower-triangle keys ``wanted``; a key the
        pattern lacks raises ``ValueError``."""
        at = np.minimum(np.searchsorted(self.keys, wanted), self.keys.size - 1)
        if (self.keys[at] != wanted).any():
            raise ValueError("an entry lies outside the selected inverse's pattern")
        return self.slot[at]

    def _slots_of(self, L):
        """Storage slots of the entries of the factor ``L``, in L's storage
        order.  The map of one L pattern is kept, copied, and reused by
        every L with the same index arrays; an L with another pattern is
        searched for, and its map replaces the kept one unless it has
        fewer entries, so an L that lacks an entry of the symbolic factor
        (elimination cancelled it) does not evict the full pattern's."""
        kept = self._l_map
        if kept is not None and _same_pattern(L.indptr, L.indices, kept[0], kept[1]):
            return kept[2]
        cols = np.repeat(np.arange(self.n), np.diff(L.indptr))
        slots = self.slot[np.searchsorted(self.keys, cols * self.n + L.indices)]
        if kept is None or L.indptr[-1] >= kept[0][-1]:
            self._l_map = L.indptr.copy(), L.indices.copy(), slots
        return slots

    def sweep(self, Ls):
        """Sigma on the pattern for each factor in ``Ls``, a block of CSC
        factors of matrices on the plan this was laid out for: an array
        whose row is the storage slot and whose column is the factor.

        One sweep covers the whole block: each level's gathers and
        products act on every factor at once, and its sums are SciPy's
        CSR row sums (``csr_matvecs``, each term times 1.0, from 0, in
        order), one call for the block.  Each factor's Sigma is therefore
        bit for bit the one it gets in a block of its own."""
        m = len(Ls)
        # one factor's arrays are vectors, which numpy gathers fastest by
        # indexing; a block's are matrices, whose rows it gathers by take
        per_slot = () if m == 1 else (m,)
        gather = np.ndarray.__getitem__ if m == 1 else partial(np.ndarray.take, axis=0)
        lv = np.zeros((self.keys.size,) + per_slot)  # an entry L lacks reads 0
        for f, L in enumerate(Ls):
            lv.reshape(-1, m)[self._slots_of(L), f] = L.data
        inv = 1.0 / gather(lv, self.diag_of)  # 1 / L[k, k] at every slot of column k
        scaled = lv * inv  # L[i, k] / L[k, k]
        # diagonal slots start at 1 / L[k, k]^2, and off-diagonal ones at 0
        # for their sums, each written before any deeper level reads it
        sigma = inv * inv
        sigma[self._off_diagonal] = 0.0
        cols, ones = self._ones
        for o0, o1, d1, pair_l, pair_sigma, out_ptr, diag_ptr in self.levels:
            terms = gather(scaled, pair_l)
            terms *= gather(sigma, pair_sigma)
            out = sigma[o0:o1]
            _sparsetools.csr_matvecs(o1 - o0, pair_l.size, m, out_ptr, cols, ones, terms, out)
            t = out * scaled[o0:o1]
            np.negative(out, out=out)
            diag = np.zeros((d1 - o1,) + per_slot)
            _sparsetools.csr_matvecs(d1 - o1, o1 - o0, m, diag_ptr, cols, ones, t, diag)
            sigma[o1:d1] += diag
        return sigma.reshape(-1, m)


def chol(a):
    """Cholesky-factorise a SparseSym in a fill-reducing order, or raise.

    Precision matrices here are sparse but often have a dense row and
    column, such as an intercept as latent 0; factorised in the given
    order, that row fills the whole factor.  SuperLU's minimum-degree
    ordering on A^T + A (``MMD_AT_PLUS_A``) eliminates such rows last,
    so the factor keeps roughly the sparsity of A (Rue & Held 2005,
    *GMRFs*, section 2.4.1).  That order comes from the matrix's
    ``CholPlan`` (a fresh one when ``a.plan`` is None), and the matrix,
    pre-permuted by it, is factorised in natural order, which SuperLU
    keeps: the plan's order is already post-ordered along the
    elimination tree, so the factor's ``perm`` is the plan's.  The
    matrix is read through ``a.data`` and its plan alone, so ``a.csc``
    is not built.
    The LU factorisation is restricted to diagonal pivots with the same
    row and column order, so for a symmetric positive-definite input
    U = D L^T and the Cholesky factor of A[perm][:, perm] is L sqrt(D)
    (scaled when the factor's ``L`` is first read).  A non-positive
    pivot means the input is not positive definite and is reported by
    elimination step.

    SuperLU is called through ``_superlu.gstrf``, the entry point that
    ``spla.splu`` itself calls with the same arguments, so that its L and
    U come out as raw CSC arrays (``_raw_csc``) instead of the
    ``csc_array``s ``splu`` would build: ``chol`` reads U only for the
    pivots, and L stays raw until the factor's ``L`` is first read.
    ``tests/test_sparse.py`` (``TestPrivateFactorisation``) pins this
    call to the public ``splu`` route bit for bit.
    """
    if not isinstance(a, SparseSym):
        raise TypeError("chol expects a SparseSym")
    plan = a.plan if a.plan is not None else CholPlan(a.indptr, a.indices)
    b = plan.permuted(a.data)
    try:
        lu = _superlu.gstrf(
            a.n, b.nnz, b.data, b.indices, b.indptr,
            csc_construct_func=_raw_csc, ilu=False, options=_NATURAL_OPTIONS,
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise FactorizationError(f"factorisation failed: {err}") from err
    order = np.arange(a.n)
    if not ((lu.perm_c == order).all() and (lu.perm_r == order).all()):
        # diagonal pivoting keeps rows and columns in the plan's order;
        # guard so that a reordering or an off-diagonal pivot never leaks
        # into a "Cholesky" factor
        raise FactorizationError("factorisation produced an unexpected permutation")
    # the pivots: U is upper triangular, and SuperLU ends its column j
    # with the supernode rows up to j, so the diagonal entry comes last
    u_data, _, u_indptr = lu.U[0]
    d = u_data[u_indptr[1:] - 1]
    if not (d > 0.0).all():
        k = int(np.flatnonzero(~(d > 0.0))[0])
        raise FactorizationError(
            f"matrix is not positive definite: pivot {k} (row {plan.perm[k]}) is {d[k]:g}",
            pivot=k,
        )
    return CholFactor(a.n, lu.L[0], float(np.log(d).sum()), lu, plan, pivots=d)

"""Mapper algebra: turning latent state vectors into predictor effects.

A mapper knows four things: how many latent variables it consumes
(``ibm_n``), how many output rows it produces for a given input
(``ibm_n_output``), the effect vector it evaluates (``ibm_eval``), and
the Jacobian of that effect with respect to the latent state
(``ibm_jacobian``).  Mappers compose: Scale wraps another mapper,
Marginal transforms one, Pipe chains several, Multi crosses a main
mapper with group/replicate index mappers, Collect concatenates.

``eval`` takes a state vector of shape (n_latent,) or a state matrix of
shape (n_latent, S), one state per column, and returns (n_rows,) or
(n_rows, S).  Every column of a matrix result equals, bit for bit, the
vector result for that column, so a caller may evaluate many states in
one call.  ``jacobian`` takes a single state vector and returns a CSR
matrix; the index, linear, factor, scale, marginal and collect mappers
build it straight from its CSR arrays, and scale and marginal keep the
inner Jacobian's stored pattern when a row's factor is 0.  Aggregation
mappers sum or log-sum-exp rows into blocks without a loop over blocks:
a ``BlockSpec`` keeps its rows block by block, the per-block maximum is
one ``np.maximum.reduceat``, and the per-block sum is one product with
the block indicator matrix, which adds each block's rows in row order.

Inputs are deliberately plain: covariates are float arrays, index
inputs are 1-based integer arrays, block aggregation takes a
``BlockSpec``, compound mappers take tuples/lists of the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy import special

__all__ = [
    "MapperError",
    "BlockSpec",
    "Mapper",
    "ConstMapper",
    "LinearMapper",
    "IndexMapper",
    "FactorMapper",
    "ScaleMapper",
    "MarginalMapper",
    "ExponentialQuantile",
    "GammaQuantile",
    "LogSumExpMapper",
    "AggregateMapper",
    "MultiMapper",
    "PipeMapper",
    "CollectMapper",
    "ibm_n",
    "ibm_eval",
    "ibm_jacobian",
    "ibm_n_output",
]


class MapperError(ValueError):
    """Invalid mapper input: bad index, unknown level, bad weights, ..."""


@dataclass(frozen=True)
class BlockSpec:
    """Block-and-weights input for aggregation mappers.

    ``block`` holds 1-based block ids per row, ``weights`` the per-row
    weights, ``n_block`` the number of output blocks.

    Computed once, on first use: ``order`` lists the rows block by block
    (a stable sort, so rows keep their order within a block), block b's
    rows are ``order[bounds[b]:bounds[b + 1]]``, and ``indicator`` is the
    (n_block, rows) 0/1 matrix with those rows in each of its rows.
    """

    block: np.ndarray
    weights: np.ndarray
    n_block: int

    def __post_init__(self):
        block = np.asarray(self.block, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "weights", weights)
        if block.shape != weights.shape:
            raise MapperError(
                f"block/weights length mismatch: {block.size} vs {weights.size}"
            )
        if not np.all(np.isfinite(weights)):
            raise MapperError("weights must be finite")
        if block.size and (block.min() < 1 or block.max() > self.n_block):
            raise MapperError(
                f"block ids must lie in 1..{self.n_block}, "
                f"got range {block.min()}..{block.max()}"
            )

    @cached_property
    def order(self):
        return np.argsort(self.block, kind="stable")

    @cached_property
    def bounds(self):
        counts = np.bincount(self.block - 1, minlength=self.n_block)
        return np.concatenate([[0], np.cumsum(counts)])

    @cached_property
    def indicator(self):
        return sp.csr_matrix(
            (np.ones(self.block.size), self.order, self.bounds),
            shape=(self.n_block, self.block.size),
        )


def _csr(data, indices, indptr, n_cols):
    """The CSR Jacobian with these arrays and ``n_cols`` columns, one row
    per entry of ``indptr`` but the last; stored zeros stay stored."""
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_cols))


def _scale_rows(d, J):
    """diag(d) J: row i of the Jacobian J times d[i], with J's stored
    pattern.  Each value is scipy's ``sp.diags(d) @ J``'s, 0.0 + d_i J_ij,
    but an entry that comes out 0 (a zero d_i, or a product that
    underflows) stays stored, as B's zero slopes do, so J's pattern does
    not follow the values."""
    J = J.tocsr()
    return _csr(J.data * np.repeat(d, np.diff(J.indptr)), J.indices, J.indptr, J.shape[1])


def _structural_product(a, b):
    """The sparse product a @ b on the product of the stored patterns: a
    sum that cancels to 0, or a stored zero times anything, which scipy's
    product drops, stays stored as a zero, and every value is scipy's, bit
    for bit (0.0 + v = v)."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    ones = [sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape) for m in (a, b)]
    p, v = (ones[0] @ ones[1]).tocoo(), (a @ b).tocoo()  # sums of ones cannot cancel
    ij = (np.concatenate([p.row, v.row]), np.concatenate([p.col, v.col]))
    return sp.csr_matrix((np.concatenate([0.0 * p.data, v.data]), ij), shape=p.shape)


def _rowwise(values, state):
    """Per-row ``values`` shaped to broadcast along the rows of ``state``,
    a vector or a matrix with one state per column."""
    return values if state.ndim == 1 else values[:, None]


def _as_float_array(x, what):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise MapperError(f"{what} must be one-dimensional")
    return arr


def _as_index_array(x, n, what="index"):
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise MapperError(f"{what} must be one-dimensional")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(np.asarray(arr, dtype=float))
        if not np.allclose(arr, rounded):
            raise MapperError(f"{what} values must be integers")
        arr = rounded.astype(np.int64)
    else:
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 1 or arr.max() > n):
        raise MapperError(
            f"{what} out of range: values must lie in 1..{n}, "
            f"got range {arr.min()}..{arr.max()}"
        )
    return arr


class Mapper:
    """Base class; concrete mappers override the four core methods."""

    #: True when the effect is a fixed linear map of the state
    is_linear = False

    def n_latent(self):
        """Number of latent variables consumed, or None if it adapts
        to the state it is given (aggregation mappers)."""
        raise NotImplementedError

    def n_output(self, inp):
        raise NotImplementedError

    def eval(self, inp, state):
        raise NotImplementedError

    def jacobian(self, inp, state):
        raise NotImplementedError

    def slice_rows(self, inp, rows):
        """Restrict an input to a subset of rows (Multi needs this)."""
        raise MapperError(f"{type(self).__name__} cannot be row-sliced")

    def _check_state(self, state):
        state = np.asarray(state, dtype=float)
        n = self.n_latent()
        if n is not None and (state.ndim not in (1, 2) or state.shape[0] != n):
            raise MapperError(
                f"state has shape {state.shape}, expected ({n},) or ({n}, S) "
                f"for {type(self).__name__}"
            )
        return state


class ConstMapper(Mapper):
    """A fixed constant per row; consumes no latent state."""

    is_linear = True

    def __init__(self, value=1.0):
        self.value = float(value)

    def n_latent(self):
        return 0

    def n_output(self, inp):
        return int(inp) if np.isscalar(inp) else len(inp)

    def eval(self, inp, state):
        state = self._check_state(state)
        return np.full((self.n_output(inp),) + state.shape[1:], self.value)

    def jacobian(self, inp, state):
        return sp.csr_matrix((self.n_output(inp), 0))

    def slice_rows(self, inp, rows):
        return len(rows)


class LinearMapper(Mapper):
    """Single coefficient times a covariate column."""

    is_linear = True

    def n_latent(self):
        return 1

    def n_output(self, inp):
        return len(_as_float_array(inp, "covariate"))

    def eval(self, inp, state):
        state = self._check_state(state)
        return _rowwise(_as_float_array(inp, "covariate"), state) * state[0]

    def jacobian(self, inp, state):
        x = _as_float_array(inp, "covariate")
        stored = x != 0  # a zero covariate stores no entry
        indptr = np.zeros(x.size + 1, dtype=np.int64)
        np.cumsum(stored, out=indptr[1:])
        return _csr(x[stored], np.zeros(indptr[-1], dtype=np.int64), indptr, 1)

    def slice_rows(self, inp, rows):
        return _as_float_array(inp, "covariate")[rows]


class IndexMapper(Mapper):
    """Select latent coordinates by 1-based index.

    The Jacobian is built from its CSR arrays: a 1 in each row, in the
    column of its index.
    """

    is_linear = True

    def __init__(self, n):
        if n < 1:
            raise MapperError("IndexMapper needs n >= 1")
        self.n = int(n)

    def n_latent(self):
        return self.n

    def n_output(self, inp):
        return len(np.asarray(inp))

    def eval(self, inp, state):
        state = self._check_state(state)
        idx = _as_index_array(inp, self.n)
        return state[idx - 1]

    def jacobian(self, inp, state):
        idx = _as_index_array(inp, self.n)
        return _csr(np.ones(idx.size), idx - 1, np.arange(idx.size + 1), self.n)

    def slice_rows(self, inp, rows):
        return np.asarray(inp)[rows]


class FactorMapper(Mapper):
    """Categorical effect, one latent per level.

    ``coding="full"`` gives every level its own latent;
    ``coding="contrast"`` drops the first level (its effect is zero).
    """

    is_linear = True

    def __init__(self, levels, coding="full"):
        if coding not in ("full", "contrast"):
            raise MapperError(f"unknown factor coding {coding!r}")
        self.levels = list(levels)
        if len(self.levels) != len(set(self.levels)):
            raise MapperError("factor levels must be distinct")
        if not self.levels:
            raise MapperError("factor needs at least one level")
        self.coding = coding
        self._pos = {lev: i for i, lev in enumerate(self.levels)}

    def n_latent(self):
        return len(self.levels) - (1 if self.coding == "contrast" else 0)

    def n_output(self, inp):
        return len(np.asarray(inp))

    def _columns(self, inp):
        vals = np.asarray(inp)
        cols = np.empty(vals.size, dtype=np.int64)
        for i, v in enumerate(vals):
            try:
                cols[i] = self._pos[v]
            except KeyError:
                raise MapperError(f"unknown factor level {v!r}") from None
        if self.coding == "contrast":
            cols = cols - 1  # first level becomes -1 (no latent)
        return cols

    def eval(self, inp, state):
        state = self._check_state(state)
        cols = self._columns(inp)
        out = np.zeros((cols.size,) + state.shape[1:])
        used = cols >= 0
        out[used] = state[cols[used]]
        return out

    def jacobian(self, inp, state):
        cols = self._columns(inp)
        used = cols >= 0
        indptr = np.zeros(cols.size + 1, dtype=np.int64)
        np.cumsum(used, out=indptr[1:])
        return _csr(np.ones(indptr[-1]), cols[used], indptr, self.n_latent())

    def slice_rows(self, inp, rows):
        return np.asarray(inp)[rows]


class ScaleMapper(Mapper):
    """Element-wise scaling of an inner mapper's effect.

    Input is ``(scale_values, inner_input)``.  The Jacobian is the inner
    one with its rows scaled (``_scale_rows``) and its stored pattern:
    a zero scale keeps its row's entries stored, as zeros.
    """

    def __init__(self, inner):
        self.inner = inner

    @property
    def is_linear(self):
        return self.inner.is_linear

    def _split(self, inp):
        scale, inner_inp = inp
        return _as_float_array(scale, "scale"), inner_inp

    def n_latent(self):
        return self.inner.n_latent()

    def n_output(self, inp):
        scale, inner_inp = self._split(inp)
        n = self.inner.n_output(inner_inp)
        if n != scale.size:
            raise MapperError(f"scale length {scale.size} != effect length {n}")
        return n

    def eval(self, inp, state):
        scale, inner_inp = self._split(inp)
        inner = self.inner.eval(inner_inp, state)
        if inner.shape[0] != scale.size:
            raise MapperError(
                f"scale length {scale.size} != effect length {inner.shape[0]}"
            )
        return _rowwise(scale, inner) * inner

    def jacobian(self, inp, state):
        scale, inner_inp = self._split(inp)
        return _scale_rows(scale, self.inner.jacobian(inner_inp, state))

    def slice_rows(self, inp, rows):
        scale, inner_inp = self._split(inp)
        return scale[rows], self.inner.slice_rows(inner_inp, rows)


class ExponentialQuantile:
    """Exponential(rate) quantile family, evaluated through the normal CDF.

    value(t) = F^{-1}(Phi(t)) = -log(1 - Phi(t)) / rate, computed with
    log_ndtr so the upper tail never saturates.
    """

    name = "exponential"

    def __init__(self, rate):
        if not rate > 0:
            raise MapperError("exponential rate must be positive")
        self.rate = float(rate)

    def value(self, t):
        return -special.log_ndtr(-np.asarray(t, dtype=float)) / self.rate

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        # phi(t) / (rate * (1 - Phi(t))), in log space for tail accuracy
        log_phi = -0.5 * t * t - 0.5 * np.log(2.0 * np.pi)
        return np.exp(log_phi - special.log_ndtr(-t)) / self.rate


class GammaQuantile:
    """Gamma(shape, rate) quantile family through the normal CDF."""

    name = "gamma"

    def __init__(self, shape, rate):
        if not (shape > 0 and rate > 0):
            raise MapperError("gamma shape and rate must be positive")
        self.shape = float(shape)
        self.rate = float(rate)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        lower = t <= 0
        # use whichever tail of the normal CDF is computed accurately
        out[lower] = special.gammaincinv(self.shape, special.ndtr(t[lower]))
        out[~lower] = special.gammainccinv(self.shape, special.ndtr(-t[~lower]))
        return out / self.rate

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        g = self.value(t) * self.rate  # unit-rate gamma value
        log_phi = -0.5 * t * t - 0.5 * np.log(2.0 * np.pi)
        with np.errstate(divide="ignore"):
            log_pdf = (self.shape - 1.0) * np.log(g) - g - special.gammaln(self.shape)
        return np.exp(log_phi - log_pdf) / self.rate


class MarginalMapper(Mapper):
    """Push a Gaussian effect through a target marginal distribution.

    The inner mapper's effect t becomes F^{-1}(Phi(t)) for the given
    quantile family, so a standard normal latent gets exactly the target
    marginal.  With ``inner=None`` the state itself is transformed
    (input is then the row count).

    The Jacobian is the inner one with row i scaled by the derivative at
    t_i (``_scale_rows``), or that diagonal alone without an inner mapper.
    Its stored pattern is the inner one's whatever the state: past
    t = -39 the exponential quantile's derivative underflows to 0, and
    its entries stay stored, so a linearisation there keeps B's pattern,
    and with it the fit's one Q* pattern.
    """

    is_linear = False

    def __init__(self, family, inner=None):
        self.family = family
        self.inner = inner

    def n_latent(self):
        if self.inner is None:
            return None  # adapts to the state it is handed
        return self.inner.n_latent()

    def n_output(self, inp):
        if self.inner is None:
            return int(inp) if np.isscalar(inp) else len(inp)
        return self.inner.n_output(inp)

    def _inner_eval(self, inp, state):
        if self.inner is None:
            state = np.asarray(state, dtype=float)
            n = self.n_output(inp)
            if state.shape[0] != n:
                raise MapperError(f"state length {state.shape[0]} != rows {n}")
            return state
        return self.inner.eval(inp, state)

    def eval(self, inp, state):
        return self.family.value(self._inner_eval(inp, state))

    def jacobian(self, inp, state):
        t = self._inner_eval(inp, state)
        d = self.family.deriv(t)
        if self.inner is None:
            return _csr(d, np.arange(d.size), np.arange(d.size + 1), d.size)
        return _scale_rows(d, self.inner.jacobian(inp, state))

    def slice_rows(self, inp, rows):
        if self.inner is None:
            return len(rows)
        return self.inner.slice_rows(inp, rows)


def _check_block_weights(spec, need_nonnegative, rescale):
    w = spec.weights
    if need_nonnegative and np.any(w < 0):
        raise MapperError("negative weights are not allowed here")
    if rescale:
        if np.any(w < 0):
            raise MapperError("negative weights are not allowed with rescale")
        sums = np.bincount(spec.block - 1, weights=w, minlength=spec.n_block)
        if np.any(sums <= 0):
            bad = int(np.argmin(sums)) + 1
            raise MapperError(f"rescale needs positive total weight; block {bad} has none")


class _BlockMapper(Mapper):
    """A per-block reduction of one state entry per input row; its input
    is a BlockSpec of ``n_block`` blocks when ``n_block`` is given."""

    def __init__(self, rescale=False, n_block=None):
        self.rescale = bool(rescale)
        self.n_block = n_block

    def _spec(self, inp):
        if not isinstance(inp, BlockSpec):
            raise MapperError("aggregation mappers take a BlockSpec input")
        if self.n_block is not None and inp.n_block != self.n_block:
            raise MapperError(
                f"input declares {inp.n_block} blocks, mapper expects {self.n_block}"
            )
        return inp

    def n_latent(self):
        return None  # consumes one state entry per input row

    def n_output(self, inp):
        return self._spec(inp).n_block

    def _block_state(self, spec, state):
        state = np.asarray(state, dtype=float)
        if state.shape[0] != spec.block.size:
            raise MapperError(
                f"state length {state.shape[0]} != block rows {spec.block.size}"
            )
        return state


class LogSumExpMapper(_BlockMapper):
    """Per-block log(sum_i w_i exp(s_i)), shift-stabilised.

    With ``rescale=True`` the block sum is divided by the block's total
    weight inside the log, turning the block into a weighted
    log-average-exp.  The Jacobian row for a block is the softmax of
    (s_i + log w_i) within the block, so it is the same for both
    rescale modes.
    """

    def _terms(self, spec, state):
        state = self._block_state(spec, state)
        _check_block_weights(spec, need_nonnegative=True, rescale=self.rescale)
        with np.errstate(divide="ignore"):  # zero weights drop out as -inf
            return state + _rowwise(np.log(spec.weights), state)

    def _scaled_exp(self, spec, logterms):
        """exp(log-term - its block's maximum), row by row; the zero
        terms of zero weights add nothing to a block's sum."""
        shift = np.full((spec.n_block,) + logterms.shape[1:], -np.inf)
        full = spec.bounds[:-1] < spec.bounds[1:]
        if full.any():
            shift[full] = np.maximum.reduceat(
                logterms[spec.order], spec.bounds[:-1][full], axis=0
            )
        empty = np.isneginf(shift).reshape(spec.n_block, -1).any(axis=1)
        if empty.any():
            bad = int(np.flatnonzero(empty)[0]) + 1
            raise MapperError(f"block {bad} has no entries with positive weight")
        return shift, np.exp(logterms - shift[spec.block - 1])

    def eval(self, inp, state):
        spec = self._spec(inp)
        shift, expd = self._scaled_exp(spec, self._terms(spec, state))
        out = shift + np.log(spec.indicator @ expd)
        if self.rescale:
            totals = np.bincount(
                spec.block - 1, weights=spec.weights, minlength=spec.n_block
            )
            out -= _rowwise(np.log(totals), out)
        return out

    def jacobian(self, inp, state):
        spec = self._spec(inp)
        _, expd = self._scaled_exp(spec, self._terms(spec, state))
        vals = expd / (spec.indicator @ expd)[spec.block - 1]
        cols = np.arange(spec.block.size)
        return sp.csr_matrix(
            (vals, (spec.block - 1, cols)), shape=(spec.n_block, spec.block.size)
        )


class AggregateMapper(_BlockMapper):
    """Per-block weighted sums (optionally weight-averaged)."""

    is_linear = True

    def _matrix(self, spec):
        """The (n_block, rows) weight matrix; the effect is its product
        with the state, which adds each block's rows in row order."""
        _check_block_weights(spec, need_nonnegative=False, rescale=self.rescale)
        w = spec.weights
        if self.rescale:
            totals = np.bincount(spec.block - 1, weights=w, minlength=spec.n_block)
            w = w / totals[spec.block - 1]
        cols = np.arange(spec.block.size)
        return sp.csr_matrix(
            (w, (spec.block - 1, cols)), shape=(spec.n_block, spec.block.size)
        )

    def eval(self, inp, state):
        spec = self._spec(inp)
        state = self._block_state(spec, state)
        return self._matrix(spec) @ state

    def jacobian(self, inp, state):
        return self._matrix(self._spec(inp))


class MultiMapper(Mapper):
    """Cross a main mapper with group/replicate index mappers.

    The latent vector is laid out column-major: the main index runs
    fastest, then group, then replicate, so the total latent dimension
    is the product of the parts.  Input is a tuple
    ``(main_input, group_index, replicate_index)`` where the trailing
    parts may be None when the corresponding mapper is absent.

    The Jacobian stores each block's main Jacobian as it is stored, zeros
    included, so its pattern does not follow the state.
    """

    def __init__(self, main, group=None, replicate=None):
        self.main = main
        self.group = group
        self.replicate = replicate
        for part, label in ((group, "group"), (replicate, "replicate")):
            if part is not None and not isinstance(part, IndexMapper):
                raise MapperError(f"{label} mapper must be an IndexMapper")
        if main.n_latent() is None:
            raise MapperError("Multi main mapper must have a fixed latent size")

    @property
    def is_linear(self):
        return self.main.is_linear

    def _parts(self, inp):
        if not isinstance(inp, tuple) or len(inp) != 3:
            raise MapperError("Multi input must be (main_input, group_idx, replicate_idx)")
        return inp

    def n_latent(self):
        n = self.main.n_latent()
        if self.group is not None:
            n *= self.group.n_latent()
        if self.replicate is not None:
            n *= self.replicate.n_latent()
        return n

    def n_output(self, inp):
        main_inp, _, _ = self._parts(inp)
        return self.main.n_output(main_inp)

    def _flat_blocks(self, inp, n_rows):
        """Return (block_id_per_row, n_blocks); block 0 is the first."""
        _, group_idx, repl_idx = self._parts(inp)
        n_group = self.group.n_latent() if self.group is not None else 1
        n_repl = self.replicate.n_latent() if self.replicate is not None else 1
        g = (
            _as_index_array(group_idx, n_group, "group index") - 1
            if self.group is not None
            else np.zeros(n_rows, dtype=np.int64)
        )
        r = (
            _as_index_array(repl_idx, n_repl, "replicate index") - 1
            if self.replicate is not None
            else np.zeros(n_rows, dtype=np.int64)
        )
        if g.size != n_rows or r.size != n_rows:
            raise MapperError("group/replicate index length must match main rows")
        return g + n_group * r, n_group * n_repl

    def eval(self, inp, state):
        state = self._check_state(state)
        main_inp, _, _ = self._parts(inp)
        n_rows = self.main.n_output(main_inp)
        n_main = self.main.n_latent()
        block, _ = self._flat_blocks(inp, n_rows)
        out = np.empty((n_rows,) + state.shape[1:])
        for b in np.unique(block):
            rows = np.where(block == b)[0]
            sub = self.main.slice_rows(main_inp, rows)
            out[rows] = self.main.eval(sub, state[b * n_main:(b + 1) * n_main])
        return out

    def jacobian(self, inp, state):
        state = self._check_state(state)
        main_inp, _, _ = self._parts(inp)
        n_rows = self.main.n_output(main_inp)
        n_main = self.main.n_latent()
        block, n_blocks = self._flat_blocks(inp, n_rows)
        rows, cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for b in np.unique(block):
            sel = np.where(block == b)[0]
            sub = self.main.slice_rows(main_inp, sel)
            jac = self.main.jacobian(sub, state[b * n_main:(b + 1) * n_main]).tocsr()
            # each block's stored entries, a stored zero included, moved to
            # the block's rows and columns
            rows.append(sel[np.repeat(np.arange(jac.shape[0]), np.diff(jac.indptr))])
            cols.append(jac.indices + b * n_main)
            vals.append(jac.data)
        ij = np.concatenate(rows), np.concatenate(cols)
        return sp.csr_matrix((np.concatenate(vals), ij), shape=(n_rows, n_main * n_blocks))


class PipeMapper(Mapper):
    """Chain mappers: the effect of each stage is the state of the next.

    Input is a list with one entry per stage.  The Jacobian is the chain
    of the stages' Jacobians on the product of their stored patterns
    (``_structural_product``), so a stage's stored zero, or a sum that
    cancels, stays stored and the pattern does not follow the state.
    """

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise MapperError("Pipe needs at least one stage")
        self.stages = stages

    @property
    def is_linear(self):
        return all(s.is_linear for s in self.stages)

    def _inputs(self, inp):
        inputs = list(inp)
        if len(inputs) != len(self.stages):
            raise MapperError(
                f"Pipe got {len(inputs)} inputs for {len(self.stages)} stages"
            )
        return inputs

    def n_latent(self):
        return self.stages[0].n_latent()

    def n_output(self, inp):
        return self.stages[-1].n_output(self._inputs(inp)[-1])

    def eval(self, inp, state):
        value = np.asarray(state, dtype=float)
        for stage, stage_inp in zip(self.stages, self._inputs(inp)):
            value = stage.eval(stage_inp, value)
        return value

    def jacobian(self, inp, state):
        inputs = self._inputs(inp)
        value = np.asarray(state, dtype=float)
        jac = None
        for stage, stage_inp in zip(self.stages, inputs):
            stage_jac = stage.jacobian(stage_inp, value)
            jac = stage_jac if jac is None else _structural_product(stage_jac, jac)
            value = stage.eval(stage_inp, value)
        return jac


class CollectMapper(Mapper):
    """Concatenate named sub-mappers over a shared latent vector.

    The latent state is the concatenation of the parts' states, in
    order.  With ``hidden=True`` only the first part contributes output
    rows (the remaining parts exist purely as latent structure); with
    ``hidden=False`` the outputs are stacked.  Input is a list of
    per-part inputs.
    """

    def __init__(self, parts, hidden=True):
        self.names = list(parts)
        self.parts = [parts[k] for k in self.names]
        if not self.parts:
            raise MapperError("Collect needs at least one part")
        if any(p.n_latent() is None for p in self.parts):
            raise MapperError("Collect parts must have fixed latent sizes")
        self.hidden = bool(hidden)

    @property
    def is_linear(self):
        return all(p.is_linear for p in self.parts)

    def _inputs(self, inp):
        inputs = list(inp)
        if len(inputs) != len(self.parts):
            raise MapperError(
                f"Collect got {len(inputs)} inputs for {len(self.parts)} parts"
            )
        return inputs

    def n_latent(self):
        return sum(p.n_latent() for p in self.parts)

    def _active(self):
        return self.parts[:1] if self.hidden else self.parts

    def n_output(self, inp):
        inputs = self._inputs(inp)
        return sum(p.n_output(i) for p, i in zip(self._active(), inputs))

    def _state_blocks(self, state):
        state = self._check_state(state)
        blocks, start = [], 0
        for p in self.parts:
            n = p.n_latent()
            blocks.append(state[start:start + n])
            start += n
        return blocks

    def eval(self, inp, state):
        inputs = self._inputs(inp)
        blocks = self._state_blocks(state)
        pieces = [
            p.eval(i, b)
            for p, i, b in zip(self._active(), inputs, blocks)
        ]
        return np.concatenate(pieces) if pieces else np.empty(0)

    def jacobian(self, inp, state):
        """The active parts' Jacobians stacked, each in its part's columns,
        from their CSR arrays."""
        inputs = self._inputs(inp)
        blocks = self._state_blocks(state)
        offset = np.cumsum([0] + [p.n_latent() for p in self.parts])
        data, indices, indptr, nnz = [], [], [np.zeros(1, dtype=np.int64)], 0
        for k, (p, i, b) in enumerate(zip(self._active(), inputs, blocks)):
            J = p.jacobian(i, b).tocsr()
            data.append(J.data)
            indices.append(J.indices + offset[k])
            indptr.append(J.indptr[1:] + nnz)
            nnz += J.nnz
        return _csr(*map(np.concatenate, (data, indices, indptr)), offset[-1])


# --- functional aliases matching the mapper-method vocabulary ---------------

def ibm_n(mapper):
    """Latent dimension the mapper consumes (None if input-adaptive)."""
    return mapper.n_latent()


def ibm_n_output(mapper, inp):
    """Number of effect rows produced for this input."""
    return mapper.n_output(inp)


def ibm_eval(mapper, inp, state):
    """Effect for the given input and latent state: a vector, or one
    column per state of a state matrix."""
    return mapper.eval(inp, state)


def ibm_jacobian(mapper, inp, state):
    """Sparse Jacobian of the effect with respect to the state."""
    return mapper.jacobian(inp, state)

"""Tests for the symmetric sparse matrix / Cholesky layer."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg._dsolve import _superlu

from iterlace.engine import Component, Linearisation, Model, ObsBlock, theta_explore
from iterlace import sparse
from iterlace.exprs import parse_expr
from iterlace.latents import Ar1Model, LatentModel, Rw1Model
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.sparse import (
    CholFactor,
    CholPlan,
    FactorizationError,
    SparseSym,
    _splu,
    chol,
    matmul,
    sparse_from_triplets,
)
from shared import public_solve_lt


def random_spd(rng, n, density=0.4):
    """A random sparse SPD matrix: M M^T + n I on a sparse mask."""
    m = sp.random(n, n, density=density, random_state=rng, format="csc")
    a = (m @ m.T).tocsc() + sp.identity(n, format="csc") * n
    return SparseSym(a)


class TestConstruction:
    def test_from_triplets_sums_duplicates(self):
        a = sparse_from_triplets(2, [0, 0, 1, 0, 1], [0, 1, 0, 0, 1], [1.0, 2.0, 2.0, 3.0, 5.0])
        np.testing.assert_allclose(a.to_dense(), [[4.0, 2.0], [2.0, 5.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sparse_from_triplets(2, [0, 1], [1, 0], [1.0, 2.0])

    def test_accepts_roundoff_asymmetry(self):
        base = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        a = SparseSym.from_dense(base)
        np.testing.assert_allclose(a.to_dense(), a.to_dense().T)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sparse_from_triplets(2, [0, 2], [0, 2], [1.0, 1.0])

    def test_triplets_roundtrip(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 7)
        r, c, v = a.triplets()
        b = sparse_from_triplets(7, r, c, v)
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), atol=1e-15)


class TestTrustedConstruction:
    def test_matches_the_validating_constructor(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 9).csc
        got = SparseSym._trusted(a.copy())
        want = SparseSym(a)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got.csc, attr), getattr(want.csc, attr))

    def test_zeros_dropped_without_touching_a_shared_pattern(self):
        # the validating constructor drops the zeros into arrays of its
        # own, leaving the shared pattern as it is; a trusted matrix keeps
        # the zeros, the pattern's arrays and its plan, with the same values
        base = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1], format="csc")
        data = base.data.copy()
        data[base.indices != np.repeat(np.arange(3), np.diff(base.indptr))] = 0.0
        shared = sp.csc_matrix((data, base.indices, base.indptr), shape=(3, 3))
        plan = CholPlan(shared.indptr, shared.indices)
        a = SparseSym._trusted(shared, plan)
        assert a.csc is shared and a.plan is plan and a.csc.nnz == 7
        assert a.indices is shared.indices and a.indptr is shared.indptr
        indices = shared.indices.copy()
        want = SparseSym(shared)
        assert want.csc.nnz == 3 and shared.nnz == 7
        np.testing.assert_array_equal(shared.indices, indices)
        assert np.array_equal(a.to_dense(), want.to_dense())
        _check_factor(chol(a), a)


class TestWithoutSolver:
    def test_keeps_sampling_and_drops_solve(self):
        rng = np.random.default_rng(8)
        f = chol(random_spd(rng, 7))
        lean = f.without_solver()
        z = rng.standard_normal((7, 3))
        assert np.array_equal(lean.solve_lt(z), f.solve_lt(z))
        assert lean.L is f.L and lean.log_det == f.log_det
        assert np.array_equal(lean.perm, f.perm)
        assert lean._splu is None and f._splu is not None
        with pytest.raises(ValueError, match="without its solver"):
            lean.solve(np.ones(7))
        f.solve(np.ones(7))  # the original keeps its solver


class TestChol:
    def test_two_by_two_hand_case(self):
        # L L^T = A[perm][:, perm]: [[4, 2], [2, 3]] factors as
        # [[2, 0], [1, sqrt(2)]] in natural order and as
        # [[sqrt(3), 0], [2/sqrt(3), sqrt(8/3)]] swapped; det = 8 either way
        a = sparse_from_triplets(2, [0, 0, 1, 1], [0, 1, 0, 1], [4.0, 2.0, 2.0, 3.0])
        hand = {
            (0, 1): [[2.0, 0.0], [1.0, np.sqrt(2.0)]],
            (1, 0): [[np.sqrt(3.0), 0.0], [2.0 / np.sqrt(3.0), np.sqrt(8.0 / 3.0)]],
        }
        f = chol(a)
        assert tuple(f.perm) in hand
        np.testing.assert_allclose(f.L.toarray(), hand[tuple(f.perm)], atol=1e-14)
        np.testing.assert_allclose(f.log_det, np.log(8.0), atol=1e-14)

    def test_factor_reproduces_input(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 23, 60):
            a = random_spd(rng, n)
            f = chol(a)
            np.testing.assert_array_equal(np.sort(f.perm), np.arange(n))
            dense = a.to_dense()
            np.testing.assert_allclose(
                (f.L @ f.L.T).toarray(), dense[f.perm][:, f.perm], atol=1e-10 * n
            )

    def test_log_det_matches_dense(self):
        rng = np.random.default_rng(12)
        for n in (3, 10, 40):
            a = random_spd(rng, n)
            sign, logdet = np.linalg.slogdet(a.to_dense())
            assert sign == 1.0
            f = chol(a)
            np.testing.assert_allclose(f.log_det, logdet, rtol=1e-10)

    def test_non_pd_reports_pivot(self):
        a = sparse_from_triplets(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0])
        with pytest.raises(FactorizationError) as exc:
            chol(a)
        assert exc.value.pivot == 1

    def test_non_pd_pivot_is_an_elimination_step(self):
        # a hub joined to a chain of 6 leaves; leaf 3 has a negative diagonal
        n = 7
        a = 4.0 * np.eye(n)
        a[0, 0] = 10.0
        a[0, 1:] = a[1:, 0] = 1.0
        for i in range(1, n - 1):
            a[i, i + 1] = a[i + 1, i] = -1.0
        twin = chol(SparseSym.from_dense(a))  # same pattern, positive definite
        a[3, 3] = -1.0
        with pytest.raises(FactorizationError) as exc:
            chol(SparseSym.from_dense(a))
        # the ordering depends on the pattern alone, so the twin's is the same
        perm = twin.perm
        assert not np.array_equal(perm, np.arange(n))
        k = exc.value.pivot
        assert f"pivot {k} (row {perm[k]})" in str(exc.value)
        ap = a[perm][:, perm]
        np.linalg.cholesky(ap[:k, :k])
        assert np.linalg.eigvalsh(ap[: k + 1, : k + 1]).min() <= 0.0

    def test_pivots_are_superlu_diagonal(self):
        # chol reads each pivot as the last entry of its column of U, and
        # scales SuperLU's unit-diagonal L by their square roots
        rng = np.random.default_rng(13)
        for n in (1, 4, 30, 80):
            a = random_spd(rng, n)
            f = chol(a)
            d = _splu(f._plan.permuted(a.data), "NATURAL").U.diagonal()
            assert f.log_det == float(np.log(d).sum())
            unit = f.L.copy()
            unit.data /= np.repeat(np.sqrt(d), np.diff(unit.indptr))
            np.testing.assert_allclose(unit.diagonal(), 1.0, rtol=1e-15)

    def test_singular_raises(self):
        a = SparseSym.from_dense(np.zeros((3, 3)) + np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(FactorizationError):
            chol(a)


def intercept_bym_qstar(side=12):
    """Q* of an intercept-first BYM fit on a side x side rook lattice.

    Latent 0 is the intercept, then the Besag half u and the iid half v;
    every area's row of B touches the intercept, u_i and v_i, so the
    intercept's row and column of Q* are dense.
    """
    n = side * side
    idx = np.arange(n).reshape(side, side)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    adj = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    adj = adj + adj.T
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    q = sp.block_diag(
        [sp.identity(1) * 1e-3, 2.0 * lap + 1e-8 * sp.identity(n), 10.0 * sp.identity(n)]
    )
    b = sp.hstack([np.ones((n, 1)), sp.identity(n), sp.identity(n)])
    h = np.random.default_rng(3).uniform(1.0, 20.0, n)
    return SparseSym((q + b.T @ sp.diags(h) @ b).tocsc())


class TestFillReducingOrder:
    def test_intercept_first_arrow_stays_sparse(self):
        # in natural order the dense intercept row fills the whole factor
        a = intercept_bym_qstar()
        f = chol(a)
        n = a.n
        assert f.L.nnz <= 0.10 * n * (n + 1) / 2
        dense = a.to_dense()
        np.testing.assert_allclose(
            (f.L @ f.L.T).toarray(), dense[f.perm][:, f.perm], atol=1e-10 * n
        )

    def test_solve_lt_covariance_identity(self):
        a = intercept_bym_qstar()
        f = chol(a)
        linvt = f.solve_lt(np.eye(a.n))
        cov = np.linalg.inv(a.to_dense())
        np.testing.assert_allclose(linvt @ linvt.T, cov, atol=1e-9 * np.abs(cov).max())


def _check_factor(f, a):
    """L L^T = A[perm][:, perm], and solve and solve_lt invert A."""
    dense = a.to_dense()
    scale = np.abs(dense).max()
    np.testing.assert_allclose(
        (f.L @ f.L.T).toarray(), dense[f.perm][:, f.perm], atol=1e-12 * a.n * scale
    )
    rhs = np.arange(1.0, a.n + 1.0)
    x = f.solve(rhs)
    assert np.abs(dense @ x - rhs).max() <= 1e-12 * a.n * scale * np.abs(x).max()
    linvt = f.solve_lt(np.eye(a.n))
    cov = np.linalg.inv(dense)
    np.testing.assert_allclose(linvt @ linvt.T, cov, atol=1e-9 * np.abs(cov).max())


class TestCholPlan:
    def test_a_shared_plan_matches_fresh_factors(self):
        # D A D keeps A's pattern and symmetry for any positive diagonal D
        a = intercept_bym_qstar(side=6)
        plan = CholPlan(a.csc.indptr, a.csc.indices)
        rows = a.csc.indices
        cols = np.repeat(np.arange(a.n), np.diff(a.csc.indptr))
        rng = np.random.default_rng(4)
        for _ in range(3):
            d = rng.uniform(0.5, 2.0, a.n)
            data = a.csc.data * d[rows] * d[cols]
            planned = chol(SparseSym._trusted(
                sp.csc_matrix((data, a.csc.indices, a.csc.indptr), shape=a.csc.shape), plan
            ))
            b = SparseSym(sp.csc_matrix((data.copy(), rows.copy(), a.csc.indptr.copy())))
            assert b.plan is None
            fresh = chol(b)
            assert planned.L.nnz == fresh.L.nnz
            np.testing.assert_array_equal(planned.perm, fresh.perm)
            scale = np.abs(fresh.L.data).max()
            assert np.abs((planned.L - fresh.L).toarray()).max() <= 1e-12 * scale
            assert planned.log_det == pytest.approx(fresh.log_det, rel=1e-12)
            _check_factor(planned, b)

    def test_order_matches_superlu_on_the_matrix_itself(self):
        # the stand-in the plan analyses gives the order SuperLU picks for
        # the matrix itself, and the same number of nonzeros in L
        a = intercept_bym_qstar(side=6)
        lu = spla.splu(a.csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        f = chol(a)
        np.testing.assert_array_equal(f.perm, np.argsort(lu.perm_c))
        assert f.L.nnz == lu.L.nnz

    def test_an_exact_zero_keeps_the_plan(self):
        # Q[0, 1] = -0.5 and h = (0, 0, -0.5) cancel it exactly: Q* stores
        # entries (0, 1) and (1, 0) as zeros and keeps the pattern's plan
        q = Ar1Model(4).precision({"prec": 0.75, "rho": 0.5})
        bmat = sp.csr_matrix(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [1.0, 1.0, 0, 0]]))
        lin = Linearisation(u0=np.zeros(4), B=bmat, delta=np.zeros(3), block_slices=[])
        for h, cancels in (([-1.0, 0.0, 0.0], False), ([0.0, 0.0, -0.5], True)):
            h = np.array(h)
            a = lin.qstar(q, h)
            assert a.plan is lin._qstar.plan and a.indices is lin._qstar.indices
            assert (a.to_dense()[0, 1] == 0.0) == cancels
            want = SparseSym(q.csc - (bmat.T @ sp.diags(h) @ bmat).tocsc())
            assert np.array_equal(a.to_dense(), want.to_dense())
            _check_factor(chol(a), a)

    def test_ar1_pattern_changes_rebuild_the_plan(self):
        # an AR(1) through the public constructor stores no off-diagonal
        # entries at rho = 0, so Q's pattern, and Q*'s, follow rho
        comp = Component("a", _PublicAr1(9))
        block = ObsBlock(GaussianFamily(fixed_prec=1.0), np.zeros(9), parse_expr("a"),
                         {"a": np.arange(1, 10)})
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(9))
        h = -np.ones(9)
        q_plans, qstar_plans = [], []
        for rho in (0.0, 0.6, 0.0):
            q = model.precision({"a": {"prec": 2.0, "rho": rho}})
            qstar = lin.qstar(q, h)
            for a in (q, qstar):
                assert a.plan is not None
                _check_factor(chol(a), a)
            q_plans.append(q.plan)
            qstar_plans.append(qstar.plan)
        for plans in (q_plans, qstar_plans):
            assert plans[0] is not plans[1] and plans[1] is not plans[2]

    def test_ordering_computed_once_per_pattern(self, monkeypatch):
        # every SuperLU factorisation goes through gstrf: chol calls it
        # directly, and the plan's ordering through spla.splu
        calls = {"MMD_AT_PLUS_A": 0, "NATURAL": 0}
        real_gstrf = _superlu.gstrf

        def counting(*args, options, **kwargs):
            calls[options["ColPerm"]] += 1
            return real_gstrf(*args, options=options, **kwargs)

        monkeypatch.setattr(_superlu, "gstrf", counting)
        rng = np.random.default_rng(9)
        comp = Component("f", Rw1Model(15))
        block = ObsBlock(PoissonFamily(), rng.poisson(4.0, size=15).astype(float),
                         parse_expr("f"), {"f": np.arange(1, 16)})
        model = Model([comp], [block])
        _, grid, _ = theta_explore(model, model.linearise(np.zeros(15)))
        assert len(grid) > 1
        # one ordering for Q*'s pattern and one for RW1's R + c I, however
        # many factorisations run
        assert calls["MMD_AT_PLUS_A"] == 2
        assert calls["NATURAL"] > 50


class _PublicAr1(LatentModel):
    """An AR(1) whose precision goes through the public ``SparseSym``
    constructor, which drops the off-diagonal zeros at rho = 0."""

    def __init__(self, n):
        self.ar1 = Ar1Model(n)

    def n_latent(self):
        return self.ar1.n

    def hypers(self):
        return self.ar1.hypers()

    def precision(self, values):
        return SparseSym(self.ar1.precision(values).csc)

    def default_mapper(self):
        return self.ar1.default_mapper()


def _public_route(a):
    """``a`` factored through the public ``spla.splu`` with chol's options,
    on a fresh plan of its pattern: (plan, SuperLU object, perm, pivots)."""
    plan = CholPlan(a.indptr, a.indices)
    lu = _splu(plan.permuted(a.data), "NATURAL")
    perm = np.empty_like(plan.perm)
    perm[lu.perm_c] = plan.perm
    return plan, lu, perm, lu.U.diagonal()


def _cancelled_qstar(with_lin=False):
    """A Q* whose (0, 1) entry cancels to a stored zero that its factor's
    L leaves out (see ``test_qstar_with_a_cancelled_entry``); with
    ``with_lin``, also its linearisation and scipy's expression for it."""
    q = SparseSym.from_dense([[2.0, -0.5, 0.3, 0.0], [-0.5, 2.0, 0.3, 0.3],
                              [0.3, 0.3, 2.0, 0.3], [0.0, 0.3, 0.3, 2.0]])
    bmat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0]]))
    h = np.array([-0.5])
    lin = Linearisation(u0=np.zeros(4), B=bmat, delta=np.zeros(1), block_slices=[])
    a = lin.qstar(q, h)
    if not with_lin:
        return a
    return a, lin, SparseSym(q.csc - (bmat.T @ sp.diags(h) @ bmat).tocsc())


class TestPrivateFactorisation:
    """``chol`` calls SuperLU's ``gstrf`` directly; every factor must equal,
    bit for bit, the one the public ``spla.splu`` gives."""

    def test_matches_the_public_route(self):
        rng = np.random.default_rng(17)
        cases = [random_spd(rng, n) for n in (1, 4, 30, 80)]
        cases += [intercept_bym_qstar(), _cancelled_qstar()]
        for a in cases:
            f = chol(a)
            plan, lu, perm, d = _public_route(a)
            # SuperLU keeps the plan's order, which chol's guard rests on
            np.testing.assert_array_equal(lu.perm_c, np.arange(a.n))
            np.testing.assert_array_equal(lu.perm_r, np.arange(a.n))
            np.testing.assert_array_equal(f.perm, perm)
            assert f.log_det == float(np.log(d).sum())
            L = lu.L
            L.data *= np.repeat(np.sqrt(d), np.diff(L.indptr))
            assert f.L.shape == L.shape
            for got, want in ((f.L.data, L.data), (f.L.indices, L.indices),
                              (f.L.indptr, L.indptr)):
                np.testing.assert_array_equal(got, want)
            rhs = rng.standard_normal((a.n, 3))
            for b in (rhs[:, 0], rhs):
                want = lu.solve(b[plan.perm])[plan.inverse]
                np.testing.assert_array_equal(f.solve(b), want)

    def test_indefinite_raises_the_same_pivot(self):
        rng = np.random.default_rng(18)
        for n in (4, 30, 80):
            dense = random_spd(rng, n).to_dense()
            dense[n // 2, n // 2] = -1.0
            a = SparseSym.from_dense(dense)
            _, _, perm, d = _public_route(a)
            k = int(np.flatnonzero(d <= 0.0)[0])
            with pytest.raises(FactorizationError) as exc:
                chol(a)
            assert exc.value.pivot == k
            assert str(exc.value) == (
                f"matrix is not positive definite: pivot {k} (row {perm[k]}) is {d[k]:g}"
            )

    def test_a_reordering_by_superlu_raises(self, monkeypatch):
        # a factor in an order other than the plan's would break perm
        gstrf = _superlu.gstrf

        def reordered(*args, **kwargs):
            lu = gstrf(*args, **kwargs)
            # rows and columns in one order, but not the plan's
            return SimpleNamespace(L=lu.L, U=lu.U, perm_c=lu.perm_c[::-1],
                                   perm_r=lu.perm_r[::-1])

        a = random_spd(np.random.default_rng(19), 6)
        monkeypatch.setattr(sparse, "_superlu", SimpleNamespace(gstrf=reordered))
        with pytest.raises(FactorizationError, match="unexpected permutation"):
            chol(a)

    def test_singular_raises(self):
        a = SparseSym.from_dense(np.ones((2, 2)))
        with pytest.raises(RuntimeError) as public:
            _public_route(a)
        with pytest.raises(FactorizationError) as exc:
            chol(a)
        assert str(exc.value) == f"factorisation failed: {public.value}"
        assert exc.value.pivot is None


class TestPrivateTriangularSolve:
    """``solve_lt`` calls SuperLU's ``gstrs`` directly on arrays its factor
    prepares once; every solve must equal, bit for bit, the public
    ``spla.spsolve_triangular`` route."""

    def _rhs(self, rng, n):
        z = rng.standard_normal((n, 7))
        return {
            "vector": z[:, 0].copy(),
            "C-ordered": z,
            "F-ordered": np.asfortranarray(z),
            "fancy-indexed": z[:, [4, 0, 6, 0]],
            "strided": z[:, ::3],
        }

    def test_matches_the_public_route(self, monkeypatch):
        prepared = []
        prepare = CholFactor._prepare_lt

        def counting(f):
            prepared.append(f)
            return prepare(f)

        monkeypatch.setattr(CholFactor, "_prepare_lt", counting)
        rng = np.random.default_rng(61)
        cases = [random_spd(rng, n) for n in (1, 4, 30, 80)]
        cases += [intercept_bym_qstar(), _cancelled_qstar()]
        for a in cases:
            f = chol(a)
            lean = f.without_solver()  # before f is sampled from: prepares its own
            rhs = self._rhs(rng, a.n)
            # the public route first, on L as SuperLU hands it out, unsorted
            want = {name: public_solve_lt(f, b) for name, b in rhs.items()}
            kept = {name: b.copy() for name, b in rhs.items()}
            for factor in (f, lean, "after"):
                if factor == "after":  # made once f is prepared: shares its arrays
                    factor = f.without_solver()
                    assert factor._lt is f._lt
                for name, b in rhs.items():
                    got = factor.solve_lt(b)
                    assert got.shape == want[name].shape
                    assert np.array_equal(got, want[name]), (a.n, name)
                    assert np.array_equal(b, kept[name]), (a.n, name)  # rhs untouched
            # one preparation per factor sampled from, on its first solve
            assert prepared[-2:] == [f, lean]
        assert len(prepared) == 2 * len(cases)

    def test_sorting_l_in_place_changes_no_result(self):
        # the prepared arrays share L's indices, sorted in place: L and the
        # selected inverse, which reads L by key, stay as they were
        a = intercept_bym_qstar()
        f = chol(a)
        dense = f.L.toarray()
        rows, cols = _factor_pattern(f)
        before = f.selected_inverse(rows, cols)
        f.solve_lt(np.ones(a.n))
        assert f.L.has_sorted_indices
        np.testing.assert_array_equal(f.L.toarray(), dense)
        data, indices, indptr, _, _ = f._lt
        assert indices is f.L.indices and indptr is f.L.indptr
        assert data.size == f.L.nnz
        for got, want in zip(f.selected_inverse(rows, cols), before):
            np.testing.assert_array_equal(got, want)


def _with_index_dtype(m, dtype):
    """The scipy matrix ``m`` (CSR or CSC) on copies of its index arrays
    cast to ``dtype``."""
    out = m.copy()
    out.indices, out.indptr = m.indices.astype(dtype), m.indptr.astype(dtype)
    return out


def _product_operands(rng, n):
    z = rng.standard_normal((n, 5))
    return {
        "vector": z[:, 0].copy(),
        "one column": z[:, :1].copy(),
        "C-ordered": z,
        "F-ordered": np.asfortranarray(z),
        "strided vector": z[:, 3],
        "strided block": z[:, ::2],
    }


def check_product(fmt, m, rng):
    """``matmul`` on the arrays of the scipy matrix ``m`` (format ``fmt``),
    and on those of its transpose, equals scipy's ``@`` bit for bit for
    every kind of operand, which it leaves untouched."""
    for mat, form in ((m, fmt), (m.T, "csc" if fmt == "csr" else "csr")):
        for name, x in _product_operands(rng, mat.shape[1]).items():
            kept = x.copy()
            want = mat @ x
            got = matmul(form, m.indptr, m.indices, m.data, mat.shape, x)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got, want), (form, mat.shape, name)
            assert np.array_equal(x, kept)


class TestPrivateProduct:
    """``matmul`` calls scipy's ``_sparsetools`` product routines on raw
    arrays; every product must equal, bit for bit, scipy's ``@``."""

    def test_matches_the_public_route(self):
        rng = np.random.default_rng(71)
        for fmt in ("csr", "csc"):
            for shape in ((1, 1), (6, 9), (40, 25), (25, 40)):
                m = sp.random(*shape, density=0.3, random_state=rng, format=fmt)
                m.data = rng.standard_normal(m.nnz)
                # an empty row and an empty column
                dense = m.toarray()
                dense[shape[0] // 2] = 0.0
                dense[:, shape[1] // 2] = 0.0
                m = sp.csr_matrix(dense) if fmt == "csr" else sp.csc_matrix(dense)
                for dtype in (np.int32, np.int64):
                    check_product(fmt, _with_index_dtype(m, dtype), rng)

    def test_all_zero_and_empty_matrices(self):
        rng = np.random.default_rng(72)
        for fmt in ("csr", "csc"):
            for shape in ((5, 3), (0, 3), (3, 0)):
                m = sp.csr_matrix(shape) if fmt == "csr" else sp.csc_matrix(shape)
                check_product(fmt, m, rng)

    def test_sparse_sym_products_build_no_csc(self):
        rng = np.random.default_rng(73)
        for a in (random_spd(rng, 1), random_spd(rng, 30), intercept_bym_qstar()):
            lazy = SparseSym._on_pattern(a.data, a.indptr, a.indices)
            for name, x in _product_operands(rng, a.n).items():
                assert np.array_equal(lazy @ x, a.csc @ x), name
            assert lazy._csc is None

    def test_rejects_a_wrong_operand(self):
        m = sp.random(4, 6, density=0.5, random_state=1, format="csr")
        for x in (np.ones(4), np.ones((4, 2)), np.ones((6, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="operand has shape"):
                matmul("csr", m.indptr, m.indices, m.data, m.shape, x)


class TestSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        for n in (1, 4, 17, 50):
            a = random_spd(rng, n)
            f = chol(a)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(
                f.solve(b), np.linalg.solve(a.to_dense(), b), atol=1e-8
            )

    def test_matrix_rhs(self):
        rng = np.random.default_rng(22)
        a = random_spd(rng, 9)
        f = chol(a)
        b = rng.standard_normal((9, 4))
        np.testing.assert_allclose(
            f.solve(b), np.linalg.solve(a.to_dense(), b), atol=1e-9
        )

    def test_solve_lt_covariance_identity(self):
        # x = L^{-T} z has covariance A^{-1}; check the algebra directly:
        # L^{-T} (L^{-T})^T = (L L^T)^{-1}
        rng = np.random.default_rng(23)
        a = random_spd(rng, 8)
        f = chol(a)
        linvt = f.solve_lt(np.eye(8))
        np.testing.assert_allclose(
            linvt @ linvt.T, np.linalg.inv(a.to_dense()), atol=1e-9
        )

    def test_rhs_shape_mismatch(self):
        a = SparseSym.from_dense(np.eye(3))
        f = chol(a)
        with pytest.raises(ValueError, match="rows"):
            f.solve(np.ones(4))


class TestDiagInverse:
    def test_second_difference_matrix(self):
        # inverse diagonal of tridiag(-1, 2, -1) at n=5 is i(6-i)/6
        n = 5
        main = np.full(n, 2.0)
        a = SparseSym(sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1]).tocsc())
        f = chol(a)
        expected = np.array([i * (n + 1 - i) / (n + 1) for i in range(1, n + 1)])
        np.testing.assert_allclose(f.diag_inverse(), expected, atol=1e-12)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(31)
        a = random_spd(rng, 30)
        f = chol(a)
        np.testing.assert_allclose(
            f.diag_inverse(), np.diag(np.linalg.inv(a.to_dense())), rtol=1e-9
        )


def _factor_pattern(f):
    """Index pairs of A^{-1} on the pattern of L + L^T, with perm undone."""
    coo = f.L.tocoo()
    r, c = f.perm[coo.row], f.perm[coo.col]
    return np.concatenate([r, c]), np.concatenate([c, r])


def _check_selected(f, a, rows=None, cols=None):
    """selected_inverse against np.linalg.inv: the diagonal, and the
    entries at (rows, cols) (L + L^T's pattern by default), to 1e-10
    relative to the inverse's largest entry."""
    if rows is None:
        rows, cols = _factor_pattern(f)
    diag, vals = f.selected_inverse(rows, cols)
    want = np.linalg.inv(a.to_dense())
    scale = np.abs(want).max()
    assert np.abs(diag - np.diag(want)).max() <= 1e-10 * scale
    assert np.abs(vals - want[rows, cols]).max() <= 1e-10 * scale


class TestSelectedInverse:
    def test_random_spd(self):
        rng = np.random.default_rng(41)
        for n in (2, 9, 40):
            a = random_spd(rng, n)
            _check_selected(chol(a), a)

    def test_intercept_first_lattice(self):
        # the BYM Q* has condition number ~2e8, so np.linalg.inv itself is
        # good to ~1e-9 only: compare that matrix with the same factor's
        # solves, and a ridged copy on the same pattern with the dense inverse
        a = intercept_bym_qstar(side=12)
        f = chol(a)
        rows, cols = _factor_pattern(f)
        diag, vals = f.selected_inverse(rows, cols)
        assert len(f._plan._schedule.levels) > 10
        want = f.solve(np.eye(a.n))
        scale = np.abs(want).max()
        assert np.abs(diag - np.diag(want)).max() <= 1e-12 * scale
        assert np.abs(vals - want[rows, cols]).max() <= 1e-12 * scale
        ridged = SparseSym(a.csc + sp.identity(a.n, format="csc"))
        _check_selected(chol(ridged), ridged)

    def test_order_one(self):
        a = SparseSym.from_dense([[4.0]])
        diag, vals = chol(a).selected_inverse([0], [0])
        np.testing.assert_allclose(diag, [0.25], rtol=1e-15)
        np.testing.assert_allclose(vals, [0.25], rtol=1e-15)

    def test_diagonal_matrix(self):
        d = np.array([1.0, 4.0, 0.5, 8.0, 2.0])
        a = SparseSym(sp.diags(d, format="csc"))
        f = chol(a)
        np.testing.assert_allclose(f.diag_inverse(), 1.0 / d, rtol=1e-15)
        diag, vals = f.selected_inverse([3], [3])
        np.testing.assert_allclose(vals, [1.0 / 8.0], rtol=1e-15)
        # the plan's pattern is the diagonal, so (0, 2) lies outside it
        with pytest.raises(ValueError, match="outside the selected inverse's pattern"):
            f.selected_inverse([0], [2])

    def test_matrices_sharing_a_plan(self):
        a = intercept_bym_qstar(side=6)
        plan = CholPlan(a.csc.indptr, a.csc.indices)
        rng = np.random.default_rng(42)
        schedules = []
        for _ in range(2):
            d = rng.uniform(0.5, 2.0, a.n)
            rows = a.csc.indices
            cols = np.repeat(np.arange(a.n), np.diff(a.csc.indptr))
            data = a.csc.data * d[rows] * d[cols] + np.where(rows == cols, 1.0, 0.0)
            b = SparseSym._trusted(
                sp.csc_matrix((data, a.csc.indices, a.csc.indptr), shape=a.csc.shape), plan
            )
            f = chol(b)
            _check_selected(f, b)
            _check_selected(f.without_solver(), b)
            schedules.append(plan._schedule)
        assert schedules[0] is schedules[1]

    def test_a_factor_entry_that_cancels_to_zero(self):
        # in the plan's order the matrix is [[1, 1, 1], [1, 2, 1], [1, 1, 2]],
        # whose L[2, 1] is 1 - 1 * 1 = 0: scipy's L omits it, and the plan's
        # one schedule, on the full pattern, reads 0 there
        full = sp.csc_matrix(np.ones((3, 3)))
        plan = CholPlan(full.indptr, full.indices)
        plan.permuted(full.data)  # computes the order
        inv = plan.inverse
        b = np.array([[1.0, 1, 1], [1, 2, 1], [1, 1, 2]])[inv][:, inv]
        factors, schedules = [], []
        for dense in (np.eye(3) * 3.0 + 1.0, b):
            a = SparseSym._trusted(sp.csc_matrix(dense), plan)
            f = chol(a)
            _check_selected(f, a)  # L + L^T, which lacks the cancelled entry
            _check_selected(f, a, *np.nonzero(np.ones((3, 3))))
            factors.append(f)
            schedules.append(plan.schedule)
        assert factors[0].L.nnz == 6 and factors[1].L.nnz == 5
        assert schedules[0] is schedules[1] and schedules[0].keys.size == 6

    def test_qstar_with_a_cancelled_entry(self):
        # Q[0, 1] = -0.5 cancels against B^T diag(h) B: Q* stores (0, 1) as
        # a zero and keeps its plan, but elimination leaves (0, 1) out of L,
        # though latents 0 and 1 stay correlated through latent 2
        a, lin, want = _cancelled_qstar(with_lin=True)
        assert a.plan is lin._qstar.plan and a.csc.nnz == 14 and a.to_dense()[0, 1] == 0.0
        assert np.array_equal(a.to_dense(), want.to_dense())
        f = chol(a)
        at = np.argsort(f.perm)[:2]  # where latents 0 and 1 sit in L
        coo = f.L.tocoo()
        assert (at.max(), at.min()) not in set(zip(coo.row, coo.col))
        rows, cols, _ = a.triplets()  # Q*'s stored pattern, (0, 1) included
        assert (0, 1) in set(zip(rows, cols))
        _check_selected(f, a, rows, cols)
        assert np.linalg.inv(a.to_dense())[0, 1] != 0.0
        with pytest.raises(ValueError, match="outside the selected inverse's pattern"):
            f.selected_inverse([0], [3])


def _reference_sweep(schedule, L):
    """One factor's Sigma by storage slot, each sum by ``np.bincount`` in
    pair order: the per-factor sweep that the blocked one replaced."""
    n = schedule.n
    cols = np.repeat(np.arange(n), np.diff(L.indptr))
    lv = np.zeros(schedule.keys.size)
    lv[schedule.slot[np.searchsorted(schedule.keys, cols * n + L.indices)]] = L.data
    inv = 1.0 / lv[schedule.diag_of]
    scaled = lv * inv
    sigma = inv * inv
    for o0, o1, d1, pair_l, pair_sigma, out_ptr, diag_ptr in schedule.levels:
        pair_out = np.repeat(np.arange(o1 - o0), np.diff(out_ptr))
        t = np.bincount(pair_out, weights=scaled[pair_l] * sigma[pair_sigma], minlength=o1 - o0)
        np.negative(t, out=sigma[o0:o1])
        t *= scaled[o0:o1]
        col_local = np.repeat(np.arange(d1 - o1), np.diff(diag_ptr))
        sigma[o1:d1] += np.bincount(col_local, weights=t, minlength=d1 - o1)
    return sigma


def _refilled(a, rng):
    """A matrix on ``a``'s pattern and plan: D A D + I for a random
    positive diagonal D."""
    d = rng.uniform(0.5, 2.0, a.n)
    rows = a.indices
    cols = np.repeat(np.arange(a.n), np.diff(a.indptr))
    data = a.data * d[rows] * d[cols] + np.where(rows == cols, 1.0, 0.0)
    return SparseSym._on_pattern(data, a.indptr, a.indices, a.plan)


class TestBlockedSweep:
    """``CholPlan.selected_inverses`` over a block of factors gives each
    factor, bit for bit, what it gets alone, and what the per-factor
    bincount sweep gave."""

    def _check_block(self, factors, rows, cols):
        plan = factors[0]._plan
        d, entries = plan.selected_inverses(factors, plan.inverse_slots(rows, cols))
        assert d.shape == (len(factors), plan.n) and entries.shape == (len(factors), len(rows))
        for f, d_f, entries_f in zip(factors, d, entries):
            alone = f.selected_inverse(rows, cols)
            assert np.array_equal(d_f, alone[0]) and np.array_equal(entries_f, alone[1])
            sigma = _reference_sweep(plan.schedule, f.L)
            want = np.empty(plan.n)
            want[plan.perm] = sigma[plan.schedule.diagonal]
            assert np.array_equal(d_f, want)
            assert np.array_equal(entries_f, sigma[plan.inverse_slots(rows, cols)])

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           density=st.sampled_from([0.02, 0.1, 0.3]), m=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_patterns(self, seed, n, density, m):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n, density)
        a.plan = CholPlan(a.indptr, a.indices)
        factors = [chol(_refilled(a, rng)) for _ in range(m)]
        rows, cols = _factor_pattern(factors[0])
        self._check_block(factors, rows, cols)
        # a factor without its solver, and one whose L rows were sorted by
        # sampling, on the map kept for the first factor's L
        factors[0].solve_lt(np.ones(n))
        self._check_block([factors[0].without_solver(), *factors[1:]], rows, cols)

    def test_a_block_with_a_factor_lacking_an_entry(self):
        # the cancelled factor of test_a_factor_entry_that_cancels_to_zero,
        # between two full ones: it is searched, and the full pattern's map
        # stays kept
        full = sp.csc_matrix(np.ones((3, 3)))
        plan = CholPlan(full.indptr, full.indices)
        plan.permuted(full.data)
        inv = plan.inverse
        cancelled = np.array([[1.0, 1, 1], [1, 2, 1], [1, 1, 2]])[inv][:, inv]
        factors = [
            chol(SparseSym._trusted(sp.csc_matrix(dense), plan))
            for dense in (np.eye(3) * 3.0 + 1.0, cancelled, np.eye(3) * 2.0 + 1.0)
        ]
        assert [f.L.nnz for f in factors] == [6, 5, 6]
        rows, cols = np.nonzero(np.ones((3, 3)))
        self._check_block(factors, rows, cols)
        self._check_block(factors[1:2], rows, cols)
        assert plan.schedule._l_map[0][-1] == 6  # the full pattern's map
        self._check_block(factors[::-1], rows, cols)

    def test_bym_lattice_in_blocks(self):
        a = intercept_bym_qstar(side=12)
        a.plan = CholPlan(a.indptr, a.indices)
        rng = np.random.default_rng(61)
        factors = [chol(_refilled(a, rng)) for _ in range(5)]
        rows, cols, _ = a.triplets()
        self._check_block(factors, rows, cols)
        self._check_block(factors[2:3], rows, cols)

    def test_factors_of_another_plan_are_refused(self):
        rng = np.random.default_rng(62)
        f, g = (chol(random_spd(rng, 5)) for _ in range(2))
        with pytest.raises(ValueError, match="on this plan"):
            f._plan.selected_inverses([f, g])


def _dense_symbolic_keys(plan, rng):
    """Lower-triangle keys (column * n + row) of the nonzeros of the dense
    Cholesky factor of a random SPD matrix on the plan's pattern, in the
    plan's order: with generic values nothing cancels, so they are the
    symbolic factor's."""
    n = plan.n
    rows = plan.indices
    cols = np.repeat(np.arange(n), np.diff(plan.indptr))
    vals = rng.uniform(-1.0, 1.0, rows.size)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    dense = dense + dense.T + 2.0 * n * np.eye(n)  # symmetric, diagonally dominant
    p = plan.perm
    r, c = np.nonzero(np.linalg.cholesky(dense[p][:, p]))
    return np.sort(c * n + r)


class TestSymbolicFactor:
    """A plan's schedule is laid out on its pattern's symbolic factor,
    before any matrix on it is factorised."""

    def _check(self, plan, rng):
        assert plan.perm is None  # no matrix on the plan is factorised yet
        keys = plan.schedule.keys
        np.testing.assert_array_equal(keys, _dense_symbolic_keys(plan, rng))

    def test_random_patterns(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 9, 40, 80):
            for density in (0.05, 0.2):
                a = random_spd(rng, n, density)
                self._check(CholPlan(a.indptr, a.indices), rng)

    def test_intercept_first_lattice(self):
        a = intercept_bym_qstar(side=12)
        self._check(CholPlan(a.indptr, a.indices), np.random.default_rng(52))

    def test_qstar_with_a_cancelled_entry(self):
        # Q*'s stored zero at (0, 1) is part of its pattern, and so of the
        # symbolic factor, though a factor's L leaves it out
        a = _cancelled_qstar()
        self._check(a.plan, np.random.default_rng(53))
        r, c = a.plan.inverse[[0, 1]]
        a.plan.schedule.find(np.array([min(r, c) * a.n + max(r, c)]))  # does not raise

    def test_closure_grows_a_pattern_to_the_symbolic_factor(self):
        # laid out on A's lower triangle alone, which is not closed, the
        # schedule grows it by the fill it lacks
        rng = np.random.default_rng(54)
        for a in (intercept_bym_qstar(side=6), random_spd(rng, 40, 0.05)):
            plan = CholPlan(a.indptr, a.indices)
            symbolic = plan.schedule.keys
            cols = np.repeat(np.arange(a.n), np.diff(a.indptr))
            r, c = plan.inverse[a.indices], plan.inverse[cols]
            lower = r >= c
            a_keys = np.unique(c[lower] * a.n + r[lower])
            assert a_keys.size < symbolic.size
            grown = sparse._InverseSchedule(a.n, a_keys)
            np.testing.assert_array_equal(grown.keys, symbolic)


class TestCancellationGuard:
    """An entry that cancels to zero in the plan's stand-in factor is
    restored before the schedule is laid out: one of A's entries by the
    union with A's permuted lower triangle, a fill entry by the closure
    of ``_InverseSchedule``."""

    @pytest.mark.parametrize("dropped", ["entry of A", "fill entry"])
    def test_an_entry_dropped_from_the_stand_in(self, dropped):
        a = intercept_bym_qstar(side=4)
        plan = CholPlan(a.indptr, a.indices)
        plan.permuted(a.data)  # computes the order and the stand-in, not the schedule
        assert plan._schedule is None
        n = plan.n
        indices, indptr = plan._stand_in_l
        cols = np.repeat(np.arange(n), np.diff(indptr))
        rows = indices[: indptr[-1]]
        keys = cols * n + rows
        b = plan._permuted  # A[perm][:, perm]
        b_cols = np.repeat(np.arange(n), np.diff(b.indptr))
        a_keys = b_cols * n + b.indices
        below, in_a = rows > cols, np.isin(keys, a_keys)
        if dropped == "entry of A":
            # in a leaf of the elimination tree no pair of entries below
            # the diagonal of another column implies the entry, so the
            # closure alone would not restore it
            parents = {int(min(rows[below & (cols == k)])) for k in np.unique(cols[below])}
            candidates = np.flatnonzero(below & in_a & ~np.isin(cols, list(parents)))
        else:
            candidates = np.flatnonzero(~in_a)
        at = candidates[0]
        indptr = indptr.copy()
        indptr[cols[at] + 1:] -= 1
        plan._stand_in_l = (np.delete(indices, at), indptr)

        schedule = plan.schedule
        assert keys[at] in set(schedule.keys.tolist())
        np.testing.assert_array_equal(schedule.keys, np.sort(keys))  # the whole symbolic factor
        on_plan = SparseSym._on_pattern(a.data, plan.indptr, plan.indices, plan)
        f = chol(on_plan)
        assert f._plan is plan
        _check_selected(f, on_plan)


class TestUniqueKeys:
    """``_unique_keys`` is ``np.unique`` by a sort: the same sorted array."""

    @pytest.mark.parametrize("keys", [
        np.random.default_rng(0).integers(0, 1801**2, 20000),
        np.random.default_rng(1).integers(0, 50, 400),
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([3, 3, 3], dtype=np.int32),
    ])
    def test_matches_np_unique(self, keys):
        got = sparse._unique_keys(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)

"""Tests for the symmetric sparse matrix / Cholesky layer."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import scipy.sparse.linalg as spla
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
    sparse_from_triplets,
)


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

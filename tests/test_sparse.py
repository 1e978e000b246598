"""Tests for the symmetric sparse matrix / Cholesky layer."""

import numpy as np
import pytest
import scipy.sparse as sp

import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from iterlace.engine import Component, Linearisation, Model, ObsBlock, theta_explore
from iterlace.exprs import parse_expr
from iterlace.latents import Ar1Model, Rw1Model
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
        base = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1], format="csc")
        data = base.data.copy()
        data[base.indices != np.repeat(np.arange(3), np.diff(base.indptr))] = 0.0
        shared = sp.csc_matrix((data, base.indices, base.indptr), shape=(3, 3))
        indices = shared.indices.copy()
        a = SparseSym._trusted(shared)
        assert a.csc.nnz == 3
        np.testing.assert_array_equal(a.to_dense(), 2.0 * np.eye(3))
        np.testing.assert_array_equal(shared.indices, indices)


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

    def test_an_exact_zero_drops_the_plan(self):
        # Q[0, 1] = -0.5 and h = (0, 0, -0.5) cancel it exactly: Q* loses
        # entries (0, 1) and (1, 0), so it goes without the pattern's plan
        q = Ar1Model(4).precision({"prec": 0.75, "rho": 0.5})
        bmat = sp.csr_matrix(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [1.0, 1.0, 0, 0]]))
        lin = Linearisation(u0=np.zeros(4), B=bmat, delta=np.zeros(3), block_slices=[])
        kept = lin.qstar(q, np.array([-1.0, 0.0, 0.0]))
        assert kept.plan is lin._qstar.plan
        dropped = lin.qstar(q, np.array([0.0, 0.0, -0.5]))
        assert dropped.csc.nnz == kept.csc.nnz - 2 and dropped.plan is None
        for a in (kept, dropped):
            _check_factor(chol(a), a)

    def test_ar1_pattern_changes_rebuild_the_plan(self):
        # AR(1) at rho = 0 stores no off-diagonal entries
        comp = Component("a", Ar1Model(9))
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


def _public_route(a):
    """``a`` factored through the public ``spla.splu`` with chol's options,
    on a fresh plan of its pattern: (plan, SuperLU object, perm, pivots)."""
    plan = CholPlan(a.indptr, a.indices)
    lu = _splu(plan.permuted(a.data), "NATURAL")
    perm = np.empty_like(plan.perm)
    perm[lu.perm_c] = plan.perm
    return plan, lu, perm, lu.U.diagonal()


def _cancelled_qstar():
    """A Q* whose (0, 1) entry cancels to an exact zero (see
    ``test_qstar_with_a_cancelled_entry``)."""
    q = SparseSym.from_dense([[2.0, -0.5, 0.3], [-0.5, 2.0, 0.3], [0.3, 0.3, 2.0]])
    bmat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
    lin = Linearisation(u0=np.zeros(3), B=bmat, delta=np.zeros(1), block_slices=[])
    return lin.qstar(q, np.array([-0.5]))


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
        # an off-diagonal entry of a diagonal matrix's inverse is zero
        diag, vals = f.selected_inverse([0, 3], [2, 3])
        np.testing.assert_allclose(vals, [0.0, 1.0 / 8.0], rtol=1e-15)

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
        # whose L[2, 1] is 1 - 1 * 1 = 0: scipy's L omits it, so the second
        # factor's pattern is not closed and not the first one's
        full = sp.csc_matrix(np.ones((3, 3)))
        plan = CholPlan(full.indptr, full.indices)
        plan.permuted(full.data)  # computes the order
        inv = plan.inverse
        b = np.array([[1.0, 1, 1], [1, 2, 1], [1, 1, 2]])[inv][:, inv]
        factors = []
        for dense in (np.eye(3) * 3.0 + 1.0, b):
            a = SparseSym._trusted(sp.csc_matrix(dense), plan)
            f = chol(a)
            _check_selected(f, a)  # L + L^T, which lacks the cancelled entry
            _check_selected(f, a, *np.nonzero(np.ones((3, 3))))
            factors.append(f)
        assert factors[0].L.nnz == 6 and factors[1].L.nnz == 5
        assert plan._schedule.fits(factors[1].L)

    def test_qstar_with_a_cancelled_entry(self):
        # Q[0, 1] = -0.5 cancels against B^T diag(h) B: Q* loses (0, 1) and
        # its plan, and elimination leaves (0, 1) out of L too, though
        # latents 0 and 1 stay correlated through latent 2
        q = SparseSym.from_dense([[2.0, -0.5, 0.3], [-0.5, 2.0, 0.3], [0.3, 0.3, 2.0]])
        bmat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
        lin = Linearisation(u0=np.zeros(3), B=bmat, delta=np.zeros(1), block_slices=[])
        a = lin.qstar(q, np.array([-0.5]))
        assert a.plan is None and a.csc.nnz == 7
        f = chol(a)
        at = np.argsort(f.perm)[:2]  # where latents 0 and 1 sit in L
        coo = f.L.tocoo()
        assert (at.max(), at.min()) not in set(zip(coo.row, coo.col))
        rows, cols = np.nonzero(np.ones((3, 3)))
        _check_selected(f, a, rows, cols)
        assert np.linalg.inv(a.to_dense())[0, 1] != 0.0

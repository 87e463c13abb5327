import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from enarkit.lsm import (
    LsmState,
    fit_lsm,
    lsm_gradient,
    lsm_loglik,
    project_constraints,
    sample_lsm_graph,
)
from enarkit import blas, lsm
from enarkit.errors import DataError, DimensionMismatch, ShapeMismatch
from enarkit.network import Graph, select_k
from oracles import (
    fit_lsm_fixed_step,
    fit_lsm_reference,
    lsm_chi_terms,
    lsm_fd_gradient,
    lsm_gradient_dense,
    lsm_loglik_dense,
    lsm_loglik_loop,
    random_orthogonal,
    sample_dense,
    sample_graph_triu,
)


def empty_graph(n):
    return Graph(np.zeros((n, n)))


def complete_graph(n):
    return Graph(np.ones((n, n)) - np.eye(n))


def random_graph(n, density, rng):
    a = np.triu((rng.random((n, n)) < density).astype(float), 1)
    return Graph(a + a.T)


def random_state(n, k, rng, scale=1.0):
    return LsmState(scale * rng.standard_normal((n, k)), scale * rng.standard_normal(n))


def test_state_rows_must_agree():
    with pytest.raises(DimensionMismatch, match="q has 4 rows but v has 3 entries"):
        LsmState(np.zeros((4, 2)), np.zeros(3))


class TestLoglik:
    def test_flat_state_counts_pairs(self):
        n = 7
        state = LsmState(np.zeros((n, 2)), np.zeros(n))
        expected = -math.comb(n, 2) * math.log(2.0)
        assert lsm_loglik(state, random_graph(n, 0.5, np.random.default_rng(0))) == pytest.approx(
            expected, rel=1e-12
        )

    def test_saturated_complete_graph_near_zero(self):
        n = 6
        state = LsmState(np.zeros((n, 1)), np.full(n, 20.0))
        ll = lsm_loglik(state, complete_graph(n))
        assert -1e-6 < ll <= 0.0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(5, 0.5, rng)
            state = random_state(5, 2, rng)
            assert lsm_loglik(state, g) == pytest.approx(
                lsm_loglik_loop(state, g.adjacency.toarray()), abs=1e-12
            )

    def test_rotation_invariance_through_gram(self):
        rng = np.random.default_rng(2)
        g = random_graph(8, 0.4, rng)
        state = random_state(8, 3, rng)
        rot = random_orthogonal(3, rng)
        rotated = LsmState(state.q @ rot, state.v)
        assert lsm_loglik(rotated, g) == pytest.approx(lsm_loglik(state, g), rel=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            g = random_graph(n, 0.5, rng)
            state = random_state(n, 2, rng, scale=0.7)
            dq, dv = lsm_gradient(state, g)
            fd_dq, fd_dv = lsm_fd_gradient(state, g)
            denom = max(np.max(np.abs(fd_dq)), np.max(np.abs(fd_dv)), 1e-8)
            assert np.max(np.abs(dq - fd_dq)) / denom < 1e-4
            assert np.max(np.abs(dv - fd_dv)) / denom < 1e-4

    def test_empty_graph_flat_state_value(self):
        # chi = 0 on the empty graph: residual is -1/2 off the diagonal
        n = 6
        state = LsmState(np.zeros((n, 1)), np.zeros(n))
        _, dv = lsm_gradient(state, empty_graph(n))
        assert np.allclose(dv, -(n - 1) / 2.0, atol=1e-12)
        assert np.all(dv < 0)

    def test_saturated_fit_near_critical(self):
        n = 6
        state = LsmState(np.zeros((n, 1)), np.full(n, 20.0))
        dq, dv = lsm_gradient(state, complete_graph(n))
        assert max(np.max(np.abs(dq)), np.max(np.abs(dv))) < 1e-6


def graph_with_isolated(n, rng):
    """Random graph whose first three nodes have no edges."""
    a = random_graph(n, 0.4, rng).adjacency.toarray()
    a[:3] = a[:, :3] = 0.0
    return Graph(a)


def wide_state(n, k, rng):
    """chi spread over [-40, 40]: v from -20 to 20, small q."""
    return LsmState(0.1 * rng.standard_normal((n, k)), np.linspace(-20.0, 20.0, n))


class TestKernelsMatchDenseOracle:
    """The upper-triangle kernels against the softplus and expit residual
    taken over all N^2 entries of chi."""

    GRAPHS = {
        "random": lambda n, rng: random_graph(n, 0.3, rng),
        "empty": lambda n, rng: empty_graph(n),
        "complete": lambda n, rng: complete_graph(n),
        "isolated": graph_with_isolated,
    }
    STATES = {
        "unit": lambda n, rng: random_state(n, 2, rng),
        "wide": lambda n, rng: wide_state(n, 2, rng),
    }

    @pytest.mark.parametrize("graph_kind", list(GRAPHS))
    @pytest.mark.parametrize("state_kind", list(STATES))
    def test_loglik_and_gradient(self, graph_kind, state_kind):
        rng = np.random.default_rng(20)
        n = 40
        g = self.GRAPHS[graph_kind](n, rng)
        state = self.STATES[state_kind](n, rng)
        a = g.adjacency.toarray()
        ref = lsm_loglik_dense(state, a)
        assert lsm_loglik(state, g) == pytest.approx(ref, rel=1e-12)
        dq, dv = lsm_gradient(state, g)
        ref_dq, ref_dv = lsm_gradient_dense(state, a)
        # each entry is a sum of N terms of both signs; bound its error by
        # the sum of their magnitudes
        sigmoid = expit(lsm_chi_terms(state))
        np.fill_diagonal(sigmoid, 0.0)
        scale = (a + sigmoid) @ np.abs(np.column_stack([state.q, np.ones(n)]))
        assert np.all(np.abs(dq - ref_dq) <= 1e-12 * scale[:, :-1])
        assert np.all(np.abs(dv - ref_dv) <= 1e-12 * scale[:, -1])

    def test_fit_follows_dense_ascent(self, lanczos_path, monkeypatch):
        rng = np.random.default_rng(21)
        n = 150
        g = sample_lsm_graph(planted_state(n, 2, rng), rng)
        monkeypatch.setattr(lsm, "MAX_ITERS", 200)
        fit = fit_lsm(g, 2)
        ref, _ = fit_lsm_reference(
            g, 2, 200,
            loglik=lambda s, graph: lsm_loglik_dense(s, graph.adjacency.toarray()),
            gradient=lambda s, graph: lsm_gradient_dense(s, graph.adjacency.toarray()),
        )
        assert lanczos_path == ["LA", "LA"]
        assert (fit.n_iters, fit.converged, fit.step_failed) == (
            ref.n_iters, ref.converged, ref.step_failed
        )
        assert fit.converged and fit.n_iters < 200
        assert np.allclose(fit.loglik_trace, ref.loglik_trace, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(fit.state.q - ref.state.q)) < 1e-9
        assert np.max(np.abs(fit.state.v - ref.state.v)) < 1e-9


class TestProjection:
    def feasible_state(self, rng, n=20, k=2):
        q = rng.standard_normal((n, k))
        return project_constraints(LsmState(q, 0.3 * rng.standard_normal(n)))

    def test_idempotent_on_feasible_states(self):
        rng = np.random.default_rng(4)
        state = self.feasible_state(rng)
        again = project_constraints(state)
        assert np.max(np.abs(again.q - state.q)) < 1e-12
        assert np.max(np.abs(again.v - state.v)) < 1e-12

    def test_centering_removes_column_means(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((15, 2)) + np.array([3.0, -2.0])
        out = project_constraints(LsmState(q, np.zeros(15)))
        assert out.centering_residual() < 1e-10

    def test_gram_diagonal_descending_and_preserved(self):
        rng = np.random.default_rng(6)
        q = 0.1 * rng.standard_normal((25, 2))  # rows well inside the cap
        state = LsmState(q, np.zeros(25))
        out = project_constraints(state)
        gram = out.q.T @ out.q
        assert abs(gram[0, 1]) < 1e-10
        assert gram[0, 0] >= gram[1, 1]
        # centering then rotation: the Gram of the centered q is preserved
        qc = q - q.mean(axis=0)
        assert np.allclose(out.q @ out.q.T, qc @ qc.T, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_rows_over_cap_centered_diagonal_capped(self, seed):
        # about half the rows start beyond the cap, off center: capping
        # moves the column means, so one centering pass does not suffice
        rng = np.random.default_rng(40 + seed)
        n, k, cap = 200, 3, 3.0 * math.sqrt(4.0)
        q = 3.0 * rng.standard_normal((n, k)) + rng.uniform(-2.0, 2.0, k)
        state = LsmState(q, 4.0 * rng.standard_normal(n))
        out = project_constraints(state)
        norms = np.sqrt((state.q**2).sum(axis=1) + state.v**2)
        assert np.mean(norms > cap) > 0.3
        assert out.centering_residual() < 1e-10
        assert out.diagonality_residual() < 1e-10
        assert np.all(np.sqrt((out.q**2).sum(axis=1) + out.v**2) <= cap * (1.0 + 1e-10))

    def test_row_cap_enforced(self):
        rng = np.random.default_rng(7)
        state = LsmState(5.0 * rng.standard_normal((10, 2)), 5.0 * rng.standard_normal(10))
        out = project_constraints(state)
        norms = np.sqrt((out.q**2).sum(axis=1) + out.v**2)
        assert np.all(norms <= 3.0 * math.sqrt(3.0) + 1e-9)  # 3 sqrt(K + 1), K = 2


class TestFitLsm:
    def test_zero_iters_returns_projected_initializer(self, monkeypatch):
        rng = np.random.default_rng(8)
        g = random_graph(30, 0.3, rng)
        monkeypatch.setattr(lsm, "MAX_ITERS", 0)
        fit = fit_lsm(g, 2)
        assert fit.n_iters == 0
        assert len(fit.loglik_trace) == 1
        assert fit.state.centering_residual() < 1e-8

    def test_k_above_node_count_rejected(self, monkeypatch):
        g = random_graph(4, 0.5, np.random.default_rng(8))
        with pytest.raises(ShapeMismatch, match=re.escape("k = 5 must satisfy 1 <= k <= 4")):
            fit_lsm(g, 5)
        monkeypatch.setattr(lsm, "MAX_ITERS", 5)
        assert fit_lsm(g, 4).state.k == 4

    def test_k_below_one_rejected(self):
        g = random_graph(4, 0.5, np.random.default_rng(8))
        with pytest.raises(DataError):
            fit_lsm(g, 0)

    def test_monotone_ascent_and_improvement(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = random_graph(40, 0.25, rng)
        monkeypatch.setattr(lsm, "MAX_ITERS", 100)
        fit = fit_lsm(g, 2)
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert trace[-1] >= trace[0]

    def test_feasibility_after_fit(self, monkeypatch):
        rng = np.random.default_rng(10)
        g = random_graph(35, 0.3, rng)
        monkeypatch.setattr(lsm, "MAX_ITERS", 50)
        fit = fit_lsm(g, 3)
        assert fit.state.centering_residual() < 1e-8
        assert fit.state.diagonality_residual() < 1e-8
        cap = 3.0 * math.sqrt(4.0)
        norms = np.sqrt((fit.state.q**2).sum(axis=1) + fit.state.v**2)
        assert np.all(norms <= cap + 1e-9)

    def test_planted_model_recovery_improves_with_n(self, monkeypatch):
        monkeypatch.setattr(lsm, "MAX_ITERS", 300)
        medians = []
        for n in (60, 150):
            errs = []
            for rep in range(4):
                rng = np.random.default_rng(1000 * n + rep)
                truth = planted_state(n, 2, rng)
                g = sample_lsm_graph(truth, rng)
                fit = fit_lsm(g, 2)
                chi_t, chi_h = lsm_chi_terms(truth), lsm_chi_terms(fit.state)
                errs.append(np.linalg.norm(chi_h - chi_t) / np.linalg.norm(chi_t))
            medians.append(np.median(errs))
        assert medians[1] < medians[0]

    def test_converges_past_fixed_step_fit_at_n320(self):
        # Barzilai-Borwein first steps reach, well inside the evaluation
        # budget, the log-likelihood that 500 fixed 1/N steps end at; the
        # evaluation count is deterministic on one BLAS thread
        rng = np.random.default_rng(0)
        g = sample_lsm_graph(planted_state(320, 3, rng), rng)
        with blas.one_thread():
            fit = fit_lsm(g, 3)
            fixed = fit_lsm_fixed_step(g, 3, 500)
        assert fit.converged and not fit.step_failed
        assert fit.loglik_trace[-1] >= fixed.loglik_trace[-1]
        assert fit.n_evals <= 300
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) > 0)

    @pytest.mark.parametrize("make_graph", [empty_graph, complete_graph])
    def test_weak_spectrum_fit_repeatable_and_draws_nothing(self, make_graph, monkeypatch):
        # no residual eigenvalue scales a column of q, so the start fills
        # every column from the fixed stream; no other generator is made
        # and numpy's global state is left alone
        seeds = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        g = make_graph(20)
        global_state = np.random.get_state()[1].copy()
        with monkeypatch.context() as capped:
            capped.setattr(lsm, "MAX_ITERS", 0)
            assert np.any(fit_lsm(g, 2).state.q != 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no ascent on a complete graph
            first, second = fit_lsm(g, 2), fit_lsm(g, 2)
        assert first.state.x().tobytes() == second.state.x().tobytes()
        assert first.loglik_trace == second.loglik_trace
        assert seeds == [0, 0, 0]
        assert np.array_equal(np.random.get_state()[1], global_state)

    @pytest.mark.parametrize("call", [
        lambda: fit_lsm(random_graph(30, 0.3, np.random.default_rng(13)), 2),
        lambda: lsm_loglik(random_state(30, 2, np.random.default_rng(1)),
                           random_graph(30, 0.3, np.random.default_rng(13))),
        lambda: lsm_gradient(random_state(30, 2, np.random.default_rng(1)),
                             random_graph(30, 0.3, np.random.default_rng(13))),
        lambda: select_k(random_graph(150, 0.1, np.random.default_rng(13)), 3, folds=2,
                         rng=np.random.default_rng(0)),
    ], ids=["fit_lsm", "lsm_loglik", "lsm_gradient", "select_k"])
    def test_no_dense_adjacency(self, call, monkeypatch):
        # the latent-space kernels and select_k above the dense eigensolver's
        # limit read the CSR adjacency only
        monkeypatch.setattr(lsm, "MAX_ITERS", 5)
        calls = []
        for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array, scipy.sparse.coo_array):
            for name in ("toarray", "todense"):
                dense = getattr(cls, name)

                def spy(self, *args, _dense=dense, **kwargs):
                    calls.append(self.shape)
                    return _dense(self, *args, **kwargs)

                monkeypatch.setattr(cls, name, spy)
        call()
        assert calls == []

    def test_lanczos_start_repeat_fits_bitwise_equal(self, lanczos_path, monkeypatch):
        rng = np.random.default_rng(12)
        g = random_graph(60, 0.2, rng)
        monkeypatch.setattr(lsm, "MAX_ITERS", 20)
        first = fit_lsm(g, 2)
        second = fit_lsm(g, 2)
        assert lanczos_path == ["LA", "LA"]
        assert np.array_equal(first.state.q, second.state.q)
        assert np.array_equal(first.state.v, second.state.v)
        assert first.loglik_trace == second.loglik_trace


class TestFitMatchesReference:
    """The buffered ascent reproduces, bit for bit, the loop that rebuilds
    chi through the public log-likelihood and gradient on every call."""

    @pytest.mark.parametrize("n, density, k, seed, max_iters, stop", [
        (15, 0.5, 1, 0, 500, "converged"),
        (20, 0.3, 2, 0, 20, "cap"),
        (10, 0.5, 1, 2, 40, "backtracked"),
    ])
    def test_bitwise_equal(self, n, density, k, seed, max_iters, stop, monkeypatch):
        g = random_graph(n, density, np.random.default_rng(seed))
        monkeypatch.setattr(lsm, "MAX_ITERS", max_iters)
        fit = fit_lsm(g, k)
        ref, rejected = fit_lsm_reference(g, k, max_iters)
        assert fit.loglik_trace == ref.loglik_trace
        assert fit.state.q.tobytes() == ref.state.q.tobytes()
        assert fit.state.v.tobytes() == ref.state.v.tobytes()
        assert (fit.n_iters, fit.converged, fit.step_failed, fit.n_evals) == (
            ref.n_iters, ref.converged, ref.step_failed, ref.n_evals
        )
        assert fit.n_evals == fit.n_iters + 1 + rejected
        assert fit.loglik_trace[-1] == lsm_loglik(fit.state, g)
        # "cap" stops at the iteration cap with every first step accepted,
        # "backtracked" at the cap after rejecting candidates, "converged"
        # on the windowed gain (Barzilai-Borwein steps overshoot on the way)
        assert fit.converged == (stop == "converged")
        assert (fit.n_iters == max_iters) == (stop != "converged")
        # the rejected candidates are built into the buffer the next
        # gradient reads, before the accepted one overwrites it
        assert (rejected > 0) == (stop != "cap")


def planted_state(n, k, rng):
    """Dense-ish planted instance with visible multiplicative structure."""
    q = 0.8 * rng.standard_normal((n, k))
    v = -1.2 + 0.3 * rng.standard_normal(n)
    return project_constraints(LsmState(q, v))


class TestSampleLsmGraph:
    @pytest.mark.parametrize("seed", range(9))
    def test_edges_match_sigmoid_of_term_by_term_chi(self, seed):
        rng = np.random.default_rng(seed)
        state = planted_state((40, 150, 320)[seed % 3], 2, rng)
        p = expit(lsm_chi_terms(state))
        np.fill_diagonal(p, 0.0)
        g = sample_lsm_graph(state, np.random.default_rng(100 + seed))
        ref = sample_dense(p, np.random.default_rng(100 + seed))
        assert g.adjacency.nnz > 0
        assert (g.adjacency != ref.adjacency).nnz == 0

    @pytest.mark.parametrize("n", [40, 129, 320])
    def test_strips_draw_the_dense_triu_indices_graph(self, n):
        # the strips of chi give the uniforms and edges of one dense draw
        state = planted_state(n, 3, np.random.default_rng(n))
        p = expit(lsm_chi_terms(state))
        g = sample_lsm_graph(state, np.random.default_rng(7))
        assert np.array_equal(g.adjacency.toarray(), sample_graph_triu(p, np.random.default_rng(7)))

import math
import re

import numpy as np
import pytest
from scipy.special import expit

from enarkit.lsm import (
    LsmState,
    fit_lsm,
    lsm_gradient,
    lsm_loglik,
    project_constraints,
    read_latent_csv,
    sample_lsm_graph,
    write_latent_csv,
)
from enarkit.errors import DataError, ShapeMismatch
from enarkit.network import Graph, sample_graph
from oracles import (
    fit_lsm_reference,
    lsm_chi_terms,
    lsm_fd_gradient,
    lsm_gradient_dense,
    lsm_loglik_dense,
    lsm_loglik_loop,
    random_orthogonal,
    write_latent_csv_loop,
)


def empty_graph(n):
    return Graph(n, np.zeros((n, n)))


def complete_graph(n):
    return Graph(n, np.ones((n, n)) - np.eye(n))


def random_graph(n, density, rng):
    a = np.triu((rng.random((n, n)) < density).astype(float), 1)
    return Graph(n, a + a.T)


def random_state(n, k, rng, scale=1.0):
    return LsmState(scale * rng.standard_normal((n, k)), scale * rng.standard_normal(n))


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
    return Graph(n, a)


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
        sigmoid = expit(state.chi())
        np.fill_diagonal(sigmoid, 0.0)
        scale = (a + sigmoid) @ np.abs(np.column_stack([state.q, np.ones(n)]))
        assert np.all(np.abs(dq - ref_dq) <= 1e-12 * scale[:, :-1])
        assert np.all(np.abs(dv - ref_dv) <= 1e-12 * scale[:, -1])

    def test_fit_follows_dense_ascent(self, lanczos_path):
        rng = np.random.default_rng(21)
        n = 150
        g = sample_lsm_graph(planted_state(n, 2, rng), rng)
        fit = fit_lsm(g, 2, np.random.default_rng(0), max_iters=200)
        ref, _ = fit_lsm_reference(
            g, 2, np.random.default_rng(0), 200,
            loglik=lambda s, graph: lsm_loglik_dense(s, graph.adjacency.toarray()),
            gradient=lambda s, graph: lsm_gradient_dense(s, graph.adjacency.toarray()),
        )
        assert lanczos_path == ["LA", "LA"]
        assert (fit.n_iters, fit.converged, fit.step_failed) == (
            ref.n_iters, ref.converged, ref.step_failed
        )
        assert fit.n_iters == 200
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
        q = rng.standard_normal((25, 2))
        state = LsmState(q, np.zeros(25))
        out = project_constraints(state, row_norm_cap=1e9)  # capping disabled
        gram = out.q.T @ out.q
        assert abs(gram[0, 1]) < 1e-10
        assert gram[0, 0] >= gram[1, 1]
        # centering then rotation: the Gram of the centered q is preserved
        qc = q - q.mean(axis=0)
        assert np.allclose(out.q @ out.q.T, qc @ qc.T, atol=1e-10)

    def test_row_cap_enforced(self):
        rng = np.random.default_rng(7)
        state = LsmState(5.0 * rng.standard_normal((10, 2)), 5.0 * rng.standard_normal(10))
        out = project_constraints(state, row_norm_cap=2.0)
        norms = np.sqrt((out.q**2).sum(axis=1) + out.v**2)
        assert np.all(norms <= 2.0 + 1e-9)


class TestFitLsm:
    def test_zero_iters_returns_projected_initializer(self):
        rng = np.random.default_rng(8)
        g = random_graph(30, 0.3, rng)
        fit = fit_lsm(g, 2, np.random.default_rng(0), max_iters=0)
        assert fit.n_iters == 0
        assert len(fit.loglik_trace) == 1
        assert fit.state.centering_residual() < 1e-8

    def test_k_above_node_count_rejected(self):
        g = random_graph(4, 0.5, np.random.default_rng(8))
        with pytest.raises(ShapeMismatch, match=re.escape("k = 5 must satisfy 1 <= k <= 4")):
            fit_lsm(g, 5, np.random.default_rng(0))
        assert fit_lsm(g, 4, np.random.default_rng(0), max_iters=5).state.k == 4

    def test_k_below_one_rejected(self):
        g = random_graph(4, 0.5, np.random.default_rng(8))
        with pytest.raises(DataError):
            fit_lsm(g, 0, np.random.default_rng(0))

    def test_negative_iteration_cap_rejected(self):
        g = random_graph(20, 0.3, np.random.default_rng(8))
        with pytest.raises(DataError):
            fit_lsm(g, 2, np.random.default_rng(0), max_iters=-1)

    def test_monotone_ascent_and_improvement(self):
        rng = np.random.default_rng(9)
        g = random_graph(40, 0.25, rng)
        fit = fit_lsm(g, 2, np.random.default_rng(0), max_iters=100)
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert trace[-1] >= trace[0]

    def test_feasibility_after_fit(self):
        rng = np.random.default_rng(10)
        g = random_graph(35, 0.3, rng)
        fit = fit_lsm(g, 3, np.random.default_rng(0), max_iters=50)
        assert fit.state.centering_residual() < 1e-8
        assert fit.state.diagonality_residual() < 1e-8
        cap = 3.0 * math.sqrt(4.0)
        norms = np.sqrt((fit.state.q**2).sum(axis=1) + fit.state.v**2)
        assert np.all(norms <= cap + 1e-9)

    def test_planted_model_recovery_improves_with_n(self):
        medians = []
        for n in (60, 150):
            errs = []
            for rep in range(4):
                rng = np.random.default_rng(1000 * n + rep)
                truth = planted_state(n, 2, rng)
                g = sample_lsm_graph(truth, rng)
                fit = fit_lsm(g, 2, rng, max_iters=300)
                chi_t, chi_h = truth.chi(), fit.state.chi()
                errs.append(np.linalg.norm(chi_h - chi_t) / np.linalg.norm(chi_t))
            medians.append(np.median(errs))
        assert medians[1] < medians[0]

    def test_lanczos_start_repeat_fits_bitwise_equal(self, lanczos_path):
        rng = np.random.default_rng(12)
        g = random_graph(60, 0.2, rng)
        first = fit_lsm(g, 2, np.random.default_rng(0), max_iters=20)
        second = fit_lsm(g, 2, np.random.default_rng(0), max_iters=20)
        assert lanczos_path == ["LA", "LA"]
        assert np.array_equal(first.state.q, second.state.q)
        assert np.array_equal(first.state.v, second.state.v)
        assert first.loglik_trace == second.loglik_trace


class TestFitMatchesReference:
    """The buffered ascent reproduces, bit for bit, the loop that rebuilds
    chi through the public log-likelihood and gradient on every call."""

    @pytest.mark.parametrize("n, density, k, seed, max_iters, stop", [
        (15, 0.5, 1, 0, 500, "converged"),
        (20, 0.3, 2, 0, 40, "cap"),
        (10, 0.5, 1, 2, 500, "backtracked"),
    ])
    def test_bitwise_equal(self, n, density, k, seed, max_iters, stop):
        g = random_graph(n, density, np.random.default_rng(seed))
        fit = fit_lsm(g, k, np.random.default_rng(0), max_iters=max_iters)
        ref, rejected = fit_lsm_reference(g, k, np.random.default_rng(0), max_iters)
        assert fit.loglik_trace == ref.loglik_trace
        assert fit.state.q.tobytes() == ref.state.q.tobytes()
        assert fit.state.v.tobytes() == ref.state.v.tobytes()
        assert (fit.n_iters, fit.converged, fit.step_failed) == (
            ref.n_iters, ref.converged, ref.step_failed
        )
        assert fit.loglik_trace[-1] == lsm_loglik(fit.state, g)
        assert fit.converged == (stop != "cap")
        assert (fit.n_iters == max_iters) == (stop == "cap")
        # the rejected candidates are built into the buffer the next
        # gradient reads, before the accepted one overwrites it
        assert (rejected > 0) == (stop == "backtracked")


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
        ref = sample_graph(p, np.random.default_rng(100 + seed))
        assert g.adjacency.nnz > 0
        assert (g.adjacency != ref.adjacency).nnz == 0


class TestLatentCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        state = random_state(9, 3, rng)
        path = tmp_path / "latent.csv"
        write_latent_csv(state, str(path))
        back = read_latent_csv(str(path))
        assert np.array_equal(back.q, state.q)
        assert np.array_equal(back.v, state.v)

    @pytest.mark.parametrize("k", [2, 0])
    def test_bytes_match_csv_writer_and_round_trip_bitwise(self, tmp_path, k):
        rng = np.random.default_rng(12)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
        state = LsmState(rng.standard_normal((8, k)), rng.standard_normal(8))
        state.v[: len(special)] = special
        if k:
            state.q.flat[-len(special) :] = special[::-1]
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_latent_csv(state, str(fast))
        write_latent_csv_loop(state, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
        back = read_latent_csv(str(fast))
        assert back.q.shape == state.q.shape
        assert back.q.tobytes() == state.q.tobytes()
        assert back.v.tobytes() == state.v.tobytes()

    def test_shuffled_rows_lf_ends_and_blank_lines(self, tmp_path):
        state = random_state(7, 2, np.random.default_rng(13))
        path = tmp_path / "latent.csv"
        write_latent_csv(state, str(path))
        header, *rows = path.read_bytes().decode().splitlines()
        rows = rows[::-1]
        rows[2:2] = ["", "  "]
        path.write_text("\n".join([header, *rows, ""]), newline="")
        back = read_latent_csv(str(path))
        assert back.q.tobytes() == state.q.tobytes()
        assert back.v.tobytes() == state.v.tobytes()

    @pytest.mark.parametrize("body, message", [
        # nodes 0, 1, 0 again and -1: the repeat is the first offender
        ("node,v,q1\n0,1,2\n1,3,4\n0,9,8\n-1,5,6\n", "row 4: duplicate node id 0"),
        ("node,v,q1\n0,1,2\n-1,5,6\n1,3,4\n", "row 3: negative node id -1"),
        ("node,v,q1\n0,1,2\n\n1,3,4\n1,3,4\n", "row 5: duplicate node id 1"),
        ("node,v,q1\n0,1,2\n1,3,x\n", "row 3: cannot parse '1,3,x'"),
        ("node,v,q1\n0,1,2\n1,3\n", "row 3: cannot parse '1,3'"),
        ("node,v,q1\n0.5,1,2\n", "row 2: cannot parse '0.5,1,2'"),
        ("node,v,q1\n0,1,2\n2,3,4\n", "missing node 1"),
        ("node,v,q1\n0,1,2\n99999999999999,3,4\n", "missing node 1"),
        ("node,v,q1\n", "empty latent file"),
        ("", "expected header"),
        ("id,v,q1\n0,1,2\n", "expected header"),
    ])
    def test_malformed_file_names_offender(self, tmp_path, body, message):
        path = tmp_path / "latent.csv"
        path.write_text(body, newline="")
        with pytest.raises(DataError, match=re.escape(message)):
            read_latent_csv(str(path))

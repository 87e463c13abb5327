import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from enarkit import estimate, lsm, network
from enarkit.errors import DataError, DimensionMismatch, RankDeficient, ZeroDenominator
from enarkit.estimate import (
    DesignSpec,
    Diagnostics,
    build_design,
    confint,
    design_rows,
    fit_amnar,
    fit_embedded,
    fit_enar,
    fit_ls,
    fit_with_latents,
    predict_one_step,
    read_fit_json,
    rmse_rel,
    rmsp,
    write_fit_json,
)
from enarkit.network import Graph, normalized_laplacian, spectral_embed
from enarkit.process import CovariateSpec, EnarParams, Panel, rate_multiplier, simulate_enar
from oracles import design_rows_loop, ls_dense, ls_pivoted_qr, random_orthogonal


def random_graph(n, density, rng):
    while True:
        a = np.triu((rng.random((n, n)) < density).astype(float), 1)
        a = a + a.T
        if np.all(a.sum(axis=1) > 0):
            return Graph(n, a)


def noiseless_panel(graph, u, params, cov, t_len, rng):
    return simulate_enar(params, graph, u, cov, t_len, rng)


class TestBuildDesign:
    def test_nar_two_nodes_single_step(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        panel = Panel(y=y, z=np.zeros((2, 1, 0)))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = normalized_laplacian(Graph(2, a))
        w, y_resp = build_design(panel, lap, None, DesignSpec("nar"))
        assert w.shape == (2, 2)
        # columns are (own lag, Laplacian-weighted lag)
        assert np.allclose(w[:, 0], [1.0, 3.0])
        assert np.allclose(w[:, 1], lap @ np.array([1.0, 3.0]))
        assert np.allclose(y_resp, [2.0, 4.0])

    def test_enar_column_count(self):
        rng = np.random.default_rng(0)
        g = random_graph(12, 0.4, rng)
        u = spectral_embed(g, 1).vectors
        panel = Panel(y=rng.standard_normal((12, 4)), z=rng.standard_normal((12, 3, 2)))
        w, _ = build_design(panel, normalized_laplacian(g), u, DesignSpec("enar", 1))
        assert w.shape == (12 * 3, 1 + 2 + 2)

    def test_amnar_latent_scale(self):
        # N=16, T=4, s=1/4: latent columns scaled by 16^{-1/4} * 4^{-1/2} = 1/4
        rng = np.random.default_rng(1)
        g = random_graph(16, 0.4, rng)
        x = rng.standard_normal((16, 3))
        panel = Panel(y=rng.standard_normal((16, 5)), z=rng.standard_normal((16, 4, 0)))
        w, _ = build_design(panel, normalized_laplacian(g), x, DesignSpec("amnar", 2, s=0.25))
        assert np.allclose(w[:16, :3], 0.25 * x)

    def test_row_ordering_is_time_major(self):
        rng = np.random.default_rng(2)
        g = random_graph(5, 0.5, rng)
        lap = normalized_laplacian(g)
        panel = Panel(y=rng.standard_normal((5, 3)), z=rng.standard_normal((5, 2, 1)))
        w, y_resp = build_design(panel, lap, None, DesignSpec("nar"))
        t, i = 1, 3
        row = w[t * 5 + i]
        assert row[0] == panel.y[i, t]
        assert row[1] == pytest.approx(lap[i] @ panel.y[:, t])
        assert row[2] == panel.z[i, t, 0]
        assert y_resp[t * 5 + i] == panel.y[i, t + 1]


class TestFitLs:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            n_obs = int(rng.integers(d + 1, 41))
            w = rng.standard_normal((n_obs, d))
            y = rng.standard_normal(n_obs)
            fit = fit_ls(w, y)
            assert np.max(np.abs(fit.mu_hat - ls_dense(w, y))) < 1e-10

    def test_zero_response(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 3))
        fit = fit_ls(w, np.zeros(20))
        assert np.allclose(fit.mu_hat, 0.0)
        assert fit.sigma2_hat == 0.0

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal((50, 4))
            y = rng.standard_normal(50)
            fit = fit_ls(w, y)
            lhs = np.max(np.abs(w.T @ (y - w @ fit.mu_hat)))
            assert lhs < 1e-6 * np.max(np.abs(w.T @ y))

    def test_cov_hat_matches_inverse(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        fit = fit_ls(w, y)
        expected = fit.sigma2_hat * np.linalg.inv(w.T @ w)
        assert np.max(np.abs(fit.cov_hat - expected)) < 1e-10
        assert np.min(np.linalg.eigvalsh(fit.cov_hat)) > -1e-12

    def test_rank_deficient_identifies_columns(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((30, 4))
        w[:, 2] = 2.0 * w[:, 0]  # exact collinearity
        with pytest.raises(RankDeficient) as info:
            fit_ls(w, rng.standard_normal(30))
        assert set(info.value.columns) & {0, 2}

    def test_information_criteria_formulas(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        fit = fit_ls(w, y)
        rss = np.sum((y - w @ fit.mu_hat) ** 2)
        ll = -0.5 * 60 * (np.log(2 * np.pi * rss / 60) + 1)
        assert fit.loglik == pytest.approx(ll, rel=1e-12)
        assert fit.aic == pytest.approx(-2 * ll + 2 * 4, rel=1e-12)
        assert fit.bic == pytest.approx(-2 * ll + 4 * np.log(60), rel=1e-12)


def conditioned_design(n_obs, d, cond_w, rng):
    """A design whose singular values run geometrically from cond_w down to
    1, so cond(W) = cond_w and cond(W'W) = cond_w^2."""
    u = np.linalg.qr(rng.standard_normal((n_obs, d)))[0]
    v = random_orthogonal(d, rng)
    return (u * np.geomspace(cond_w, 1.0, d)) @ v.T


def assert_matches_qr_oracle(fit, w, y, rtol):
    ref = ls_pivoted_qr(w, y)
    got = {"mu_hat": fit.mu_hat, "se": fit.se, "sigma2_hat": fit.sigma2_hat,
           "condition_number": fit.diagnostics.condition_number}
    for key, value in ref.items():
        np.testing.assert_allclose(got[key], value, rtol=rtol, atol=0, err_msg=key)


class TestGramRoute:
    """Least squares from the Cholesky factor of W'W while cond(R) stays
    within GRAM_COND_MAX; beyond it, and on any rank question, the pivoted
    QR."""

    @pytest.mark.parametrize("cond_w, solver", [
        (1e2, "cholesky"), (0.9 * estimate.GRAM_COND_MAX, "cholesky"),
        (1.1 * estimate.GRAM_COND_MAX, "qr"), (1e5, "qr"),
    ])
    def test_route_follows_the_condition_bound(self, qr_calls, cond_w, solver):
        rng = np.random.default_rng(41)
        w = conditioned_design(400, 6, cond_w, rng)
        y = w @ rng.standard_normal(6) + rng.standard_normal(400)
        fit = fit_ls(w, y)
        assert fit.diagnostics.ls_solver == solver
        assert qr_calls == ([] if solver == "cholesky" else [w.shape])
        assert fit.diagnostics.condition_number == pytest.approx(cond_w**2, rel=1e-6)
        # the Gram route's error grows as d eps cond(W)^2; the QR route is the oracle's
        eps = np.finfo(float).eps
        assert_matches_qr_oracle(fit, w, y, 6 * eps * cond_w**2 if solver == "cholesky" else 1e-10)

    def test_collinear_design_raises_from_the_qr(self, qr_calls):
        rng = np.random.default_rng(40)
        w, y = rng.standard_normal((50, 5)), rng.standard_normal(50)
        cases = [({2: 2.0 * w[:, 0]}, [0]), ({1: 0.0}, [1]),
                 ({4: w[:, 0] + w[:, 3]}, [0]), ({1: 1.0, 3: 1.0}, [1])]
        for columns, bad in cases:
            a = w.copy()
            for j, col in columns.items():
                a[:, j] = col
            with pytest.raises(RankDeficient) as info:
                fit_ls(a, y)
            assert info.value.columns == bad
        assert qr_calls == [w.shape] * len(cases)

    @pytest.mark.parametrize("where", ["design", "response"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_fails_before_any_factorization(
        self, qr_calls, monkeypatch, where, value
    ):
        cholesky_calls = []
        monkeypatch.setattr(scipy.linalg, "cholesky", lambda *a, **k: cholesky_calls.append(a))
        rng = np.random.default_rng(42)
        w, y = rng.standard_normal((30, 3)), rng.standard_normal(30)
        (w[7, 1:2] if where == "design" else y[7:8])[:] = value
        with pytest.raises(DataError, match=f"the {where} holds a NaN"):
            fit_ls(w, y)
        assert qr_calls == [] and cholesky_calls == []


class TestNoiselessRecovery:
    """With sigma = 0 and the true latent columns, least squares is exact."""

    def setup_method(self):
        self.rng = np.random.default_rng(10)
        self.g = random_graph(30, 0.3, self.rng)
        self.lap = normalized_laplacian(self.g)
        self.u = np.linalg.qr(self.rng.standard_normal((30, 3)))[0]
        self.cov = CovariateSpec(2, np.array([2.0, 1.0]))

    def test_enar_exact(self):
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5, 1 / 3]), np.array([0.4, -0.2]), 0.0)
        panel = noiseless_panel(self.g, self.u, params, self.cov, 6, self.rng)
        w, y = build_design(panel, self.lap, self.u, DesignSpec("enar", 3))
        fit = fit_ls(w, y)
        truth = np.concatenate([params.beta, [0.2, 0.2], params.gamma])
        assert np.max(np.abs(fit.mu_hat - truth)) < 1e-8

    def test_nar_exact(self):
        params = EnarParams(0.3, -0.2, np.zeros(0), np.array([0.4, -0.2]), 0.0)
        panel = noiseless_panel(self.g, np.zeros((30, 0)), params, self.cov, 6, self.rng)
        w, y = build_design(panel, self.lap, None, DesignSpec("nar"))
        fit = fit_ls(w, y)
        truth = np.concatenate([[0.3, -0.2], params.gamma])
        assert np.max(np.abs(fit.mu_hat - truth)) < 1e-8

    def test_amnar_exact(self):
        from enarkit.process import AmnarParams, simulate_amnar

        x = self.rng.standard_normal((30, 4))
        params = AmnarParams(0.2, 0.1, np.array([1.0, -0.5, 0.25]), 0.8,
                             np.array([0.4, -0.2]), 0.0, 0.25)
        panel = simulate_amnar(params, self.g, x, self.cov, 6, self.rng)
        w, y = build_design(panel, self.lap, x, DesignSpec("amnar", 3, s=0.25))
        fit = fit_ls(w, y)
        truth = np.concatenate([params.beta, [0.2, 0.1], params.gamma])
        assert np.max(np.abs(fit.mu_hat - truth)) < 1e-8

    def test_enr_exact(self):
        rng = self.rng
        gamma = np.array([0.4, -0.2])
        beta = np.array([1.0, -0.5, 1 / 3])
        alpha = 0.7
        z0 = rng.standard_normal((30, 2))
        y1 = alpha + self.u @ beta + z0 @ gamma
        panel = Panel(y=np.column_stack([np.ones(30), y1]), z=z0[:, None, :])
        w, y = build_design(panel, np.zeros((30, 30)), self.u, DesignSpec("enr", 3))
        fit = fit_ls(w, y)
        truth = np.concatenate([beta, [alpha], gamma])
        assert np.max(np.abs(fit.mu_hat - truth)) < 1e-8
        # the regression variant has no peer term, so it needs no Laplacian
        w_none, y_none = build_design(panel, None, self.u, DesignSpec("enr", 3))
        assert np.array_equal(w_none, w) and np.array_equal(y_none, y)

    def test_enr_without_grand_mean(self):
        rng = self.rng
        gamma = np.array([0.4, -0.2])
        beta = np.array([1.0, -0.5, 1 / 3])
        z0 = rng.standard_normal((30, 2))
        y1 = self.u @ beta + z0 @ gamma
        panel = Panel(y=np.column_stack([np.ones(30), y1]), z=z0[:, None, :])
        spec = DesignSpec("enr", 3, grand_mean=False)
        w, y = build_design(panel, np.zeros((30, 30)), self.u, spec)
        fit = fit_ls(w, y)
        truth = np.concatenate([beta, gamma])
        assert np.max(np.abs(fit.mu_hat - truth)) < 1e-8


class TestModelCompositions:
    def make_panel(self, n=40, t=30, k=2, sigma=0.4, seed=0):
        rng = np.random.default_rng(seed)
        g = random_graph(n, 0.25, rng)
        u = spectral_embed(g, k).vectors
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5])[:k], np.array([0.3]), sigma)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, u, cov, t, rng)
        return g, u, params, cov, panel

    def test_nar_equals_enar_with_k_zero(self):
        g, _, _, _, panel = self.make_panel()
        fit = fit_enar(panel, g, 0)
        assert fit.latent is None
        assert math.isnan(fit.diagnostics.eigengap)
        lap = normalized_laplacian(g)
        w, y = build_design(panel, lap, None, DesignSpec("nar"))
        direct = fit_ls(w, y)
        assert np.array_equal(fit.mu_hat, direct.mu_hat)

    def test_rotation_invariance(self):
        g, _, _, _, panel = self.make_panel()
        rng = np.random.default_rng(5)
        lap = normalized_laplacian(g)
        u_hat = spectral_embed(g, 2).vectors
        rot = random_orthogonal(2, rng)
        spec = DesignSpec("enar", 2)
        w1, y1 = build_design(panel, lap, u_hat, spec)
        w2, y2 = build_design(panel, lap, u_hat @ rot, spec)
        f1, f2 = fit_ls(w1, y1), fit_ls(w2, y2)
        # non-latent coordinates, fit, and scores are rotation invariant
        assert np.max(np.abs(f1.mu_hat[2:] - f2.mu_hat[2:])) < 1e-9
        assert abs(f1.sigma2_hat - f2.sigma2_hat) < 1e-9
        assert abs(f1.aic - f2.aic) < 1e-7
        assert abs(f1.bic - f2.bic) < 1e-7
        assert np.max(np.abs(w1 @ f1.mu_hat - w2 @ f2.mu_hat)) < 1e-9
        # latent coordinates rotate contravariantly
        assert np.max(np.abs(f2.mu_hat[:2] - rot.T @ f1.mu_hat[:2])) < 1e-9

    def test_fit_enar_names_and_diagnostics(self):
        g, _, _, _, panel = self.make_panel()
        fit = fit_enar(panel, g, 2)
        diag = fit.diagnostics
        assert fit.names == ["beta_1", "beta_2", "alpha", "theta", "gamma_1"]
        # one three-pair decomposition gives the two-pair embedding and the gap
        assert np.array_equal(fit.latent, spectral_embed(g, 2).vectors)
        mags = np.sort(np.abs(np.linalg.eigvalsh(g.adjacency.toarray())))[::-1]
        assert diag.eigengap == pytest.approx(mags[1] - mags[2], abs=1e-10)
        assert diag.eigengap >= 0
        assert diag.kappa >= 0
        assert diag.condition_number >= 1

    def count_laplacian_builds(self, monkeypatch, g: Graph) -> tuple[Graph, list]:
        """A new graph on the adjacency of ``g``, which the simulation has
        already given its Laplacian, and the list of Laplacian builds."""
        built = []
        build = network.normalized_laplacian

        def counting(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(network, "normalized_laplacian", counting)
        return Graph(g.n, g.adjacency), built

    def test_enar_fit_and_forecast_build_one_laplacian(self, monkeypatch):
        g, _, _, _, panel = self.make_panel()
        g, built = self.count_laplacian_builds(monkeypatch, g)
        fit = fit_enar(panel, g, 2)
        predict_one_step(fit, g, panel.y[:, -1], panel.z[:, -1, :])
        assert len(built) == 1 and built[0] is g

    def test_amnar_fit_and_forecast_build_one_laplacian(self, monkeypatch):
        g, _, _, _, panel = self.make_panel(n=30, t=10)
        g, built = self.count_laplacian_builds(monkeypatch, g)
        fit = fit_amnar(panel, g, 2, 0.25, np.random.default_rng(0), max_iters=5)
        predict_one_step(fit, g, panel.y[:, -1], panel.z[:, -1, :])
        assert len(built) == 1 and built[0] is g

    def test_enr_fit_and_forecast_build_no_laplacian(self, monkeypatch):
        g, _, _, _, panel = self.make_panel(t=1)
        g, built = self.count_laplacian_builds(monkeypatch, g)
        fit = fit_embedded(panel, g, DesignSpec("enr", 2))
        predict_one_step(fit, g, panel.y[:, -1], panel.z[:, -1, :])
        assert built == [] and "laplacian" not in vars(g)

    def test_fit_amnar_runs_and_scales(self):
        g, _, _, _, panel = self.make_panel(n=30, t=10)
        for s in (0.01, 0.49):
            fit = fit_amnar(panel, g, 2, s, rng=np.random.default_rng(0))
            assert fit.names[:3] == ["beta_1", "beta_2", "beta_3"]
            assert fit.r == pytest.approx(30 ** -s * 10 ** -0.5)
            assert fit.diagnostics.lsm_loglik is not None
            assert np.all(np.isfinite(fit.mu_hat))

    def fit_model(self, panel, g, model, u=None):
        """The fit of ``model`` through its entry point; "oracle" is the
        known-latent enar fit on ``u``, as the benchmark's oracle runs it."""
        if model == "amnar":
            return fit_amnar(panel, g, 2, 0.25, np.random.default_rng(0), max_iters=5)
        if model == "enr":
            return fit_embedded(panel, g, DesignSpec("enr", 2))
        if model == "oracle":
            return fit_with_latents(panel, g, u, DesignSpec("enar", 2))
        return fit_enar(panel, g, 2 if model == "enar" else 0)

    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar", "oracle"])
    def test_every_fit_carries_its_latent_block_and_diagnostics(self, model):
        g, u, _, _, panel = self.make_panel(n=30, t=1 if model == "enr" else 10)
        fit = self.fit_model(panel, g, model, u)
        diag = fit.diagnostics
        assert isinstance(diag, Diagnostics) and diag.condition_number >= 1
        if model == "nar":
            assert fit.latent is None
        elif model == "amnar":
            state = lsm.fit_lsm(g, 2, np.random.default_rng(0), 5).state
            assert np.array_equal(fit.latent, state.x())
        elif model == "oracle":
            assert np.array_equal(fit.latent, u)
        else:
            assert np.array_equal(fit.latent, spectral_embed(g, 2).vectors)
        embedded = model in ("enar", "enr")
        assert math.isfinite(diag.eigengap) == embedded == math.isfinite(diag.kappa)
        assert (diag.lsm_iters is not None) == (model == "amnar")

    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar"])
    def test_gram_route_matches_pivoted_qr(self, qr_calls, model):
        g, _, _, _, panel = self.make_panel(n=30, t=1 if model == "enr" else 10)
        fit = self.fit_model(panel, g, model)
        assert fit.diagnostics.ls_solver == "cholesky" and qr_calls == []
        w, y = build_design(panel, g.laplacian, fit.latent, fit.spec)
        assert_matches_qr_oracle(fit, w, y, 1e-10)

    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar"])
    def test_condition_number_is_that_of_the_gram_matrix(self, model):
        g, _, _, _, panel = self.make_panel(n=30, t=1 if model == "enr" else 10)
        fit = self.fit_model(panel, g, model)
        w, _ = build_design(panel, g.laplacian, fit.latent, fit.spec)
        assert fit.diagnostics.condition_number == pytest.approx(
            np.linalg.cond(w.T @ w), rel=1e-10
        )

    def test_fit_amnar_makes_no_adjacency_eigendecomposition(self, monkeypatch):
        g, _, _, _, panel = self.make_panel(n=30, t=10)
        calls = []
        embed = network.embed_symmetric

        def counting(*args):
            calls.append(args[1])
            return embed(*args)

        monkeypatch.setattr(network, "embed_symmetric", counting)
        diag = fit_amnar(panel, g, 2, 0.25, np.random.default_rng(0), max_iters=5).diagnostics
        assert calls == []
        assert math.isnan(diag.eigengap) and math.isnan(diag.kappa)
        doc = diag.to_dict()
        assert doc["eigengap"] is None and doc["kappa"] is None

    def test_fit_amnar_reports_mle_convergence(self):
        g, _, _, _, panel = self.make_panel(n=30, t=10)
        # the cap stops this ascent before its relative-gain tolerance
        diag = fit_amnar(panel, g, 2, 0.25, rng=np.random.default_rng(0), max_iters=7).diagnostics
        assert diag.lsm_iters == 7 and diag.lsm_converged is False
        evals = lsm.fit_lsm(g, 2, np.random.default_rng(0), 7).n_evals
        assert diag.lsm_evals == evals >= 8
        doc = diag.to_dict()
        assert doc["lsm_converged"] is False and doc["lsm_iters"] == 7
        assert doc["lsm_evals"] == evals
        enar_diag = fit_enar(panel, g, 2).diagnostics
        assert not {"lsm_converged", "lsm_iters", "lsm_evals"} & set(enar_diag.to_dict())


class TestPredict:
    def test_noise_free_one_step_exact(self):
        rng = np.random.default_rng(3)
        g = random_graph(25, 0.3, rng)
        u = np.linalg.qr(rng.standard_normal((25, 2)))[0]
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5]), np.array([0.3]), 0.0)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, u, cov, 8, rng)
        lap = normalized_laplacian(g)
        spec = DesignSpec("enar", 2)
        w, y = build_design(panel, lap, u, spec)
        fit = fit_ls(w, y)
        fit.spec, fit.names, fit.latent = spec, spec.coef_names(1), u
        # forecast of y_T from y_{T-1} must reproduce the recorded value
        y_hat = predict_one_step(fit, g, panel.y[:, -2], panel.z[:, -1, :])
        assert np.max(np.abs(y_hat - panel.y[:, -1])) < 1e-8

    def test_beta_zero_forecast_gap_bound(self):
        rng = np.random.default_rng(4)
        g = random_graph(30, 0.3, rng)
        params = EnarParams(0.2, 0.2, np.zeros(0), np.array([0.3]), 0.5)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, np.zeros((30, 0)), cov, 40, rng)
        fit_e = fit_enar(panel, g, 2)
        fit_n = fit_enar(panel, g, 0)
        z_t = rng.standard_normal((30, 1)) * np.sqrt(2.0)
        y_t = panel.y[:, -1]
        pred_e = predict_one_step(fit_e, g, y_t, z_t)
        pred_n = predict_one_step(fit_n, g, y_t, z_t)
        gap = np.abs(pred_e - pred_n)
        beta_contrib = np.max(np.abs(fit_e.latent @ fit_e.mu_hat[:2]))
        slope_gap = np.abs(fit_e.mu_hat[2:] - fit_n.mu_hat)
        slack = beta_contrib + np.max(np.abs(np.column_stack(
            [y_t, normalized_laplacian(g) @ y_t, z_t])) @ slope_gap)
        assert np.max(gap) <= slack + 1e-9


class TestMetrics:
    def test_rmse_identity_zero(self):
        b = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert rmse_rel(b, b) == 0.0

    def test_rmse_zero_estimate_is_one(self):
        b = np.array([1.0, 2.0, 3.0])
        assert rmse_rel(b, np.zeros(3)) == pytest.approx(1.0)

    def test_rmse_hand_spectral_value(self):
        assert rmse_rel(np.eye(2), np.diag([1.0, 0.5])) == pytest.approx(0.5)

    def test_rmse_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            rmse_rel(np.zeros(2), np.ones(2))

    def test_rmsp_exact_and_zero_cases(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((10, 3))
        mu = rng.standard_normal(3)
        assert rmsp(w, mu, mu) == 0.0
        with pytest.raises(ZeroDenominator):
            rmsp(w, mu, np.zeros(3))


class TestConfint:
    def test_degenerate_interval(self):
        fit = fit_ls(np.eye(3), np.array([1.0, 2.0, 3.0]))
        fit.cov_hat = np.zeros((3, 3))
        lo, hi = confint(fit, 1, 0.95)
        assert lo == hi == fit.mu_hat[1]

    def test_symmetric_and_level_monotone(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((50, 2))
        fit = fit_ls(w, rng.standard_normal(50))
        lo95, hi95 = confint(fit, 0, 0.95)
        lo99, hi99 = confint(fit, 0, 0.99)
        mid = fit.mu_hat[0]
        assert hi95 - mid == pytest.approx(mid - lo95)
        assert hi95 - mid == pytest.approx(scipy.special.ndtri(0.975) * fit.se[0])
        assert lo99 < lo95 < hi95 < hi99

    def test_zero_peer_effect_covered(self):
        # theta = 0 truth: the nominal-95% interval should cover 0 at
        # roughly its nominal rate
        cover = 0
        reps = 60
        for rep in range(reps):
            rng = np.random.default_rng(10_000 + rep)
            g = random_graph(80, 0.15, rng)
            u = spectral_embed(g, 2).vectors
            params = EnarParams(0.2, 0.0, 0.5 * np.array([1.0, -0.5]), np.array([0.3]), 0.5)
            cov = CovariateSpec(1, np.array([2.0]))
            panel = simulate_enar(params, g, u, cov, 60, rng)
            fit = fit_enar(panel, g, 2)
            lo, hi = confint(fit, fit.names.index("theta"), 0.95)
            cover += (lo <= 0.0 <= hi)
        assert 0.85 <= cover / reps <= 1.0

    def test_strong_effects_significant(self):
        # momentum and peer effects both clear their intervals on a long panel
        rng = np.random.default_rng(6)
        g = random_graph(40, 0.3, rng)
        u = spectral_embed(g, 2).vectors
        params = EnarParams(0.5, 0.3, np.array([1.0, -0.5]), np.array([0.3]), 0.5)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, u, cov, 400, rng)
        fit = fit_enar(panel, g, 2)
        for name in ("alpha", "theta"):
            j = fit.names.index(name)
            lo, hi = confint(fit, j, 0.95)
            assert lo > 0 or hi < 0


class TestFitJson:
    def test_round_trip_preserves_contract_keys(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_graph(20, 0.3, rng)
        u = spectral_embed(g, 2).vectors
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5]), np.array([0.3]), 0.3)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, u, cov, 10, rng)
        fit = fit_enar(panel, g, 2)
        path = tmp_path / "fit.json"
        write_fit_json(fit, str(path))
        doc = json.loads(path.read_text())
        for key in ("mu_hat", "se", "sigma2_hat", "aic", "bic", "diagnostics"):
            assert key in doc
        assert list(doc["mu_hat"]) == ["beta_1", "beta_2", "alpha", "theta", "gamma_1"]
        assert list(doc["diagnostics"]) == ["eigengap", "kappa", "condition_number", "ls_solver"]
        assert doc["diagnostics"]["ls_solver"] == "cholesky"
        assert doc["beta_rotation_caveat"] is True
        back = read_fit_json(str(path))
        assert np.allclose(back.mu_hat, fit.mu_hat)
        assert back.spec.model == "enar" and back.spec.k == 2

    def test_infinite_kappa_is_written_as_strict_json_null(self, tmp_path):
        # the star's two leading eigenvalues are +-sqrt(n - 1): a zero gap
        n = 30
        a = np.zeros((n, n))
        a[0, 1:] = a[1:, 0] = 1.0
        g = Graph(n, a)
        rng = np.random.default_rng(0)
        params = EnarParams(0.2, 0.2, np.array([1.0]), np.array([0.3]), 0.3)
        cov = CovariateSpec(1, np.array([2.0]))
        panel = simulate_enar(params, g, spectral_embed(g, 1).vectors, cov, 10, rng)
        fit = fit_enar(panel, g, 1)
        assert fit.diagnostics.eigengap == 0.0 and fit.diagnostics.kappa == math.inf
        path = tmp_path / "fit.json"
        write_fit_json(fit, str(path))

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["diagnostics"]["eigengap"] == 0.0
        assert doc["diagnostics"]["kappa"] is None

    def test_diagnostics_serialization_drops_nan(self):
        d = Diagnostics(eigengap=math.nan, kappa=math.nan, condition_number=5.0)
        doc = d.to_dict()
        assert doc["eigengap"] is None and doc["condition_number"] == 5.0


class TestDesignSpecValidation:
    def test_rejects_k_for_nar(self):
        with pytest.raises(DataError):
            DesignSpec("nar", 2)

    def test_requires_k_for_embedding_models(self):
        with pytest.raises(DataError):
            DesignSpec("enar", 0)

    def test_amnar_requires_s(self):
        with pytest.raises(DataError):
            DesignSpec("amnar", 2)

    def test_slice_matches_build(self):
        rng = np.random.default_rng(7)
        g = random_graph(10, 0.4, rng)
        lap = normalized_laplacian(g)
        u = spectral_embed(g, 2).vectors
        panel = Panel(y=rng.standard_normal((10, 3)), z=rng.standard_normal((10, 2, 1)))
        spec = DesignSpec("enar", 2)
        w, _ = build_design(panel, lap, u, spec)
        slice0 = design_rows(spec, lap, u, panel.y[:, :1], panel.z[:, :1, :])
        # matrix-matrix vs matrix-vector products round differently in BLAS
        assert np.max(np.abs(w[:10] - slice0)) < 1e-12


class TestDesignRows:
    """``build_design`` against a design built entry by entry."""

    N, T, P = 9, 4, 2

    def case(self, model, seed=12):
        rng = np.random.default_rng(seed)
        g = random_graph(self.N, 0.4, rng)
        lap = normalized_laplacian(g)
        t_len = 1 if model.startswith("enr") else self.T
        panel = Panel(
            y=rng.standard_normal((self.N, t_len + 1)),
            z=rng.standard_normal((self.N, t_len, self.P)),
        )
        spec = {
            "nar": DesignSpec("nar"),
            "enar": DesignSpec("enar", 2),
            "amnar": DesignSpec("amnar", 2, s=0.3),
            "enr": DesignSpec("enr", 2),
            "enr-no-mean": DesignSpec("enr", 2, grand_mean=False),
        }[model]
        latent = rng.standard_normal((self.N, spec.latent_cols)) if spec.latent_cols else None
        return panel, lap, latent, spec

    @pytest.mark.parametrize("model", ["nar", "enar", "amnar", "enr", "enr-no-mean"])
    def test_matches_entrywise_reference(self, model):
        panel, lap, latent, spec = self.case(model)
        w, y = build_design(panel, lap, latent, spec)
        w_ref, y_ref = design_rows_loop(panel, lap, latent, spec)
        assert w.shape == w_ref.shape and w.flags.c_contiguous
        assert y.tobytes() == y_ref.tobytes()
        peer = [] if model.startswith("enr") else [spec.latent_cols + 1]
        exact = np.delete(np.arange(w.shape[1]), peer)
        assert w[:, exact].tobytes() == w_ref[:, exact].tobytes()
        if peer:
            # a BLAS product sums in another order than the Python loop
            assert np.max(np.abs(w[:, peer] - w_ref[:, peer])) < 1e-12

    @pytest.mark.parametrize("model", ["nar", "enar", "amnar", "enr", "enr-no-mean"])
    def test_one_column_calls_match_each_time_block(self, model):
        panel, lap, latent, spec = self.case(model, seed=13)
        w, _ = build_design(panel, lap, latent, spec)
        r = rate_multiplier(panel.n, panel.t, spec.s) if model == "amnar" else None
        for t in range(panel.t):
            block = design_rows(spec, lap, latent, panel.y[:, t : t + 1], panel.z[:, t : t + 1], r)
            assert np.max(np.abs(block - w[t * self.N : (t + 1) * self.N]), initial=0) < 1e-12

    def test_amnar_needs_its_scale(self):
        panel, lap, latent, spec = self.case("amnar")
        with pytest.raises(DataError, match="latent scale"):
            design_rows(spec, lap, latent, panel.y[:, :1], panel.z[:, :1])

    def test_peer_models_check_the_laplacian(self):
        panel, _, latent, spec = self.case("enar")
        for lap in (None, np.eye(self.N + 1)):
            with pytest.raises(DimensionMismatch, match="laplacian shape"):
                design_rows(spec, lap, latent, panel.y[:, :1], panel.z[:, :1])

    def test_latent_shape_checked(self):
        panel, lap, latent, spec = self.case("enar")
        with pytest.raises(DimensionMismatch, match="latent matrix"):
            design_rows(spec, lap, latent[:, :1], panel.y[:, :1], panel.z[:, :1])
        with pytest.raises(DimensionMismatch, match="requires a latent"):
            design_rows(spec, lap, None, panel.y[:, :1], panel.z[:, :1])

    def forecast_fit(self, spec, rng, latent):
        """A fit of ``spec`` on the block ``latent`` with random
        coefficients; amnar gets the scale r = N^{-s} of a one-transition
        panel."""
        mu = rng.standard_normal(len(spec.coef_names(self.P)))
        fit = fit_ls(rng.standard_normal((40, mu.size)), rng.standard_normal(40))
        fit.mu_hat, fit.spec, fit.latent = mu, spec, latent
        fit.r = rate_multiplier(self.N, 1, spec.s) if spec.model == "amnar" else None
        return fit

    @pytest.mark.parametrize("model", ["nar", "enar", "amnar", "enr"])
    def test_forecast_matches_entrywise_design(self, model):
        panel, _, latent, spec = self.case(model, seed=14)
        rng = np.random.default_rng(15)
        graph = random_graph(self.N, 0.4, rng)
        fit = self.forecast_fit(spec, rng, latent)
        z_next = rng.standard_normal((self.N, self.P))
        y_hat = predict_one_step(fit, graph, panel.y[:, -1], z_next)
        w_ref, _ = design_rows_loop(
            Panel(y=panel.y[:, [-1, -1]], z=z_next[:, None, :]),
            normalized_laplacian(graph), latent, spec,
        )
        assert np.max(np.abs(y_hat - w_ref @ fit.mu_hat)) < 1e-12

    def test_forecast_input_errors_are_typed(self):
        panel, _, latent, spec = self.case("enar")
        rng = np.random.default_rng(16)
        graph = random_graph(self.N, 0.4, rng)
        fit = self.forecast_fit(spec, rng, latent)
        y_t, z_t = panel.y[:, -1], rng.standard_normal((self.N, self.P))
        with pytest.raises(DimensionMismatch, match="y_t must have"):
            predict_one_step(fit, graph, y_t[1:], z_t)
        with pytest.raises(DimensionMismatch, match="z_t has"):
            predict_one_step(fit, graph, y_t, z_t[1:])
        with pytest.raises(DimensionMismatch, match="coefficients"):
            predict_one_step(fit, graph, y_t, z_t[:, :1])
        # covariates given flat, one per node
        fit_1 = self.forecast_fit(DesignSpec("enar", 2), rng, latent)
        fit_1.mu_hat = fit_1.mu_hat[:-1]
        assert np.array_equal(
            predict_one_step(fit_1, graph, y_t, z_t[:, 0]),
            predict_one_step(fit_1, graph, y_t, z_t[:, :1]),
        )
        fit.spec = None
        with pytest.raises(DataError, match="no design spec"):
            predict_one_step(fit, graph, y_t, z_t)


class TestSparsePath:
    def test_enar_path_allocates_no_n_by_n_array(self, tmp_path):
        # one N x N float64 array takes 200 MB at N=5000; reading the edge
        # list, simulating and fitting must all stay far below that
        n = 5000
        rng = np.random.default_rng(31)
        pairs = np.unique(np.sort(rng.integers(0, n, (6000, 2)), axis=1), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n" + "".join(f"{i},{j}\n" for i, j in pairs))
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5]), np.array([0.3]), 1.0)
        cov = CovariateSpec(1, np.array([1.0]))
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        tracemalloc.start()
        try:
            graph = network.read_edge_csv(str(path), n_nodes=n)
            panel = simulate_enar(params, graph, u, cov, 5, rng)
            fit = fit_enar(panel, graph, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert graph.adjacency.nnz == 2 * len(pairs)
        assert fit.latent.shape == (n, 2) and np.all(np.isfinite(fit.mu_hat))

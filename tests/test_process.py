import numpy as np
import pytest

from enarkit.errors import DataError, DimensionMismatch, NotStationary
from enarkit.network import Graph
from enarkit.process import (
    AmnarParams,
    CovariateSpec,
    EnarParams,
    Panel,
    autocov,
    check_stationarity,
    rate_multiplier,
    read_panel_csv,
    series_terms,
    simulate_amnar,
    simulate_enar,
    stationary_moments,
    write_panel_csv,
)
from oracles import (
    dense_transition,
    kron_gamma0,
    random_stationary_instance,
    write_panel_csv_loop,
)


def ring_graph(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return Graph(a)


def no_cov():
    return CovariateSpec(np.zeros(0))


def basic_params(alpha=0.2, theta=0.2, k=0, p=0, sigma=0.5):
    return EnarParams(alpha, theta, np.zeros(k), np.zeros(p), sigma)


class TestStationarity:
    def test_default_values_stationary(self):
        assert check_stationarity(0.2, 0.2)

    def test_boundary_excluded(self):
        assert not check_stationarity(0.5, 0.5)

    def test_near_boundary_inside(self):
        assert check_stationarity(-0.3, 0.69)

    def test_simulate_rejects_nonstationary(self):
        g = ring_graph(4)
        with pytest.raises(NotStationary):
            stationary_moments(g, np.zeros(4), basic_params(0.6, 0.5), no_cov())


class TestStationaryMoments:
    def test_scalar_recursion_when_theta_zero(self):
        g = ring_graph(5)
        v = np.arange(5.0)
        params = basic_params(alpha=0.3, theta=0.0, sigma=1.0)
        m = stationary_moments(g, v, params, no_cov())
        assert np.allclose(m.phi, v / 0.7, atol=1e-12)
        assert np.allclose(m.gamma0, (1.0 / (1 - 0.09)) * np.eye(5), atol=1e-10)

    def test_zero_latent_effect_zero_mean(self):
        g = ring_graph(6)
        m = stationary_moments(g, np.zeros(6), basic_params(), no_cov())
        assert np.allclose(m.phi, 0.0)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g, alpha, theta = random_stationary_instance(rng)
            params = basic_params(alpha, theta, sigma=rng.uniform(0.2, 1.5))
            b = rng.standard_normal(g.n)
            m = stationary_moments(g, b, params, no_cov())
            big_g = dense_transition(g, alpha, theta)
            oracle = kron_gamma0(big_g, params.sigma**2)
            assert np.max(np.abs(m.gamma0 - oracle)) < 1e-10
            assert np.allclose(m.phi, np.linalg.solve(np.eye(g.n) - big_g, b), atol=1e-10)
            assert np.allclose((m.eigvecs * m.g_eig) @ m.eigvecs.T, big_g, atol=1e-12)

    def test_innovation_scale_includes_covariates(self):
        g = ring_graph(4)
        cov = CovariateSpec(np.array([3.0, 2.0, 1.0]))
        assert cov.p == 3
        params = EnarParams(0.2, 0.2, np.zeros(0), np.array([1 / 3, -1 / 6, 0.0]), 0.5)
        m = stationary_moments(g, np.zeros(4), params, cov)
        expected = 0.25 + 3 * (1 / 3) ** 2 + 2 * (1 / 6) ** 2
        assert m.c == pytest.approx(expected, abs=1e-14)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(1)
        g, alpha, theta = random_stationary_instance(rng)
        params = basic_params(alpha, theta, sigma=1.0)
        m = stationary_moments(g, np.zeros(g.n), params, no_cov())
        big_g = dense_transition(g, alpha, theta)
        resid = np.linalg.norm(m.gamma0 - (big_g @ m.gamma0 @ big_g.T + np.eye(g.n)))
        assert resid < 1e-8 * np.linalg.norm(m.gamma0)

    def test_gamma0_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g, alpha, theta = random_stationary_instance(rng)
            m = stationary_moments(g, np.zeros(g.n), basic_params(alpha, theta, sigma=1.0), no_cov())
            assert np.min(np.linalg.eigvalsh(m.gamma0)) > -1e-10


class TestAutocov:
    def moments(self, seed=3):
        rng = np.random.default_rng(seed)
        g, alpha, theta = random_stationary_instance(rng)
        return stationary_moments(g, np.zeros(g.n), basic_params(alpha, theta, sigma=1.0), no_cov())

    def test_lag_zero_identity(self):
        m = self.moments()
        assert np.array_equal(autocov(m, 0), m.gamma0)

    def test_lags_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        g, alpha, theta = random_stationary_instance(rng)
        m = stationary_moments(g, np.zeros(g.n), basic_params(alpha, theta, sigma=1.0), no_cov())
        big_g = dense_transition(g, alpha, theta)
        gamma0 = kron_gamma0(big_g, 1.0)
        for h in (1, 2, 3):
            expected = np.linalg.matrix_power(big_g, h) @ gamma0
            assert np.max(np.abs(autocov(m, h) - expected)) < 1e-10

    def test_lag_one_scalar_g(self):
        g = ring_graph(4)
        m = stationary_moments(g, np.zeros(4), basic_params(0.4, 0.0, sigma=1.0), no_cov())
        assert np.allclose(autocov(m, 1), 0.4 * m.gamma0, atol=1e-12)

    def test_negative_lag_transpose_symmetry(self):
        m = self.moments()
        for h in (1, 2, 3):
            assert np.allclose(autocov(m, -h), autocov(m, h).T, atol=1e-12)

    def test_lag_two_matches_long_run_sample(self):
        # empirical lag-2 autocovariance of one long path; persistence is set
        # high enough that the lag-2 signal dominates the sampling noise
        n, t_len = 5, 200_000
        g = ring_graph(n)
        params = basic_params(0.5, 0.3, sigma=1.0)
        m = stationary_moments(g, np.zeros(n), params, no_cov())
        panel = simulate_enar(params, g, np.zeros((n, 0)), no_cov(), t_len,
                              np.random.default_rng(7))
        y = panel.y
        y_c = y - y.mean(axis=1, keepdims=True)
        emp = y_c[:, 2:] @ y_c[:, :-2].T / (t_len - 1)
        expected = autocov(m, 2)
        rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
        assert rel < 0.02


class TestSimulate:
    def test_fixed_point_path_when_noise_free(self):
        # with sigma = 0 and no covariates the drawn start is phi itself
        g = ring_graph(8)
        u = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 2)))[0]
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5]), np.zeros(0), 0.0)
        cov = no_cov()
        m = stationary_moments(g, u @ params.beta, params, cov)
        panel = simulate_enar(params, g, u, cov, 20, np.random.default_rng(1))
        for t in range(21):
            assert np.max(np.abs(panel.y[:, t] - m.phi)) < 1e-12

    def test_noise_free_step_applies_dense_transition(self):
        rng = np.random.default_rng(8)
        g, alpha, theta = random_stationary_instance(rng)
        u = np.linalg.qr(rng.standard_normal((g.n, 1)))[0]
        params = EnarParams(alpha, theta, np.array([0.7]), np.zeros(0), 0.0)
        panel = simulate_enar(params, g, u, no_cov(), 5, rng)
        big_g = dense_transition(g, alpha, theta)
        for t in range(5):
            expected = big_g @ panel.y[:, t] + u @ params.beta
            assert np.max(np.abs(panel.y[:, t + 1] - expected)) < 1e-12

    def test_ergodic_mean_matches_phi(self):
        n, t_len, k = 50, 100_000, 3
        rng = np.random.default_rng(5)
        a = np.triu((rng.random((n, n)) < 0.2).astype(float), 1)
        a = a + a.T
        g = Graph(a)
        u = np.linalg.qr(rng.standard_normal((n, k)))[0]
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5, 1 / 3]), np.zeros(0), 0.5)
        cov = no_cov()
        m = stationary_moments(g, u @ params.beta, params, cov)
        panel = simulate_enar(params, g, u, cov, t_len, rng)
        sample_mean = panel.y.mean(axis=1)
        # componentwise CLT band: sd of the sample mean from the long-run
        # variance of a strongly mixing AR path, bounded crudely from above
        sd = np.sqrt(np.diag(m.gamma0)) * np.sqrt(2 / (1 - 0.4)) / np.sqrt(t_len)
        assert np.all(np.abs(sample_mean - m.phi) < 5 * sd)

    def test_default_grid_cell_shapes(self):
        n, t_len, k = 40, 40, 3
        rng = np.random.default_rng(9)
        a = np.triu((rng.random((n, n)) < 0.2).astype(float), 1)
        a = a + a.T
        g = Graph(a)
        u = np.linalg.qr(rng.standard_normal((n, k)))[0]
        params = EnarParams(0.2, 0.2, np.array([1.0, -0.5, 1 / 3]),
                            np.array([1 / 3, -1 / 6, 0.0]), 0.5)
        cov = CovariateSpec(np.array([3.0, 2.0, 1.0]))
        panel = simulate_enar(params, g, u, cov, t_len, rng)
        assert panel.y.shape == (40, 41)
        assert panel.z.shape == (40, 40, 3)
        assert np.all(np.isfinite(panel.y)) and np.all(np.isfinite(panel.z))

    @pytest.mark.parametrize("call, message", [
        (lambda g, p, a: stationary_moments(g, np.zeros(5), p, no_cov()),
         r"latent effect has shape \(5,\), expected \(6,\)"),
        (lambda g, p, a: simulate_enar(p, g, np.zeros((6, 0)), no_cov(), 0,
                                       np.random.default_rng(0)), "t_len must be >= 1"),
        (lambda g, p, a: simulate_enar(EnarParams(0.2, 0.2, [1.0], [], 0.5), g,
                                       np.zeros((5, 1)), no_cov(), 3, np.random.default_rng(0)),
         r"embedding shape \(5, 1\) incompatible with N=6, K=1"),
        (lambda g, p, a: simulate_amnar(a, g, np.zeros((6, 2)), no_cov(), 3,
                                        np.random.default_rng(0)),
         r"latent truth shape \(6, 2\), expected \(6, 3\)"),
    ], ids=["moments-latent-effect", "t-len", "enar-embedding", "amnar-latent"])
    def test_shapes_are_checked(self, call, message):
        amnar = AmnarParams(0.2, 0.2, np.zeros(2), 1.0, np.zeros(0), 0.5, 0.25)
        with pytest.raises(DimensionMismatch, match=message):
            call(ring_graph(6), basic_params(), amnar)

    @pytest.mark.parametrize("sigma, gamma", [(1e200, [0.3]), (0.5, [1e200]), (np.nan, [0.3])])
    def test_innovation_variance_not_finite_is_data_error(self, sigma, gamma):
        g = ring_graph(6)
        params = EnarParams(0.2, 0.2, np.zeros(0), np.array(gamma), sigma)
        with pytest.raises(DataError, match="innovation variance .* is not finite"):
            simulate_enar(params, g, np.zeros((6, 0)), CovariateSpec([1.0]), 3,
                          np.random.default_rng(0))
        with pytest.raises(DataError, match="innovation variance .* is not finite"):
            stationary_moments(g, np.zeros(6), params, CovariateSpec([1.0]))

    def test_seed_determinism(self):
        g = ring_graph(10)
        u = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 2)))[0]
        params = EnarParams(0.1, 0.3, np.array([0.5, 0.5]), np.array([0.2]), 0.5)
        cov = CovariateSpec(np.array([2.0]))
        p1 = simulate_enar(params, g, u, cov, 30, np.random.default_rng(42))
        p2 = simulate_enar(params, g, u, cov, 30, np.random.default_rng(42))
        assert np.array_equal(p1.y, p2.y) and np.array_equal(p1.z, p2.z)

    def test_long_run_covariance_converges(self):
        n, t_len = 12, 100_000
        g = ring_graph(n)
        params = basic_params(0.25, 0.25, sigma=1.0)
        m = stationary_moments(g, np.zeros(n), params, no_cov())
        panel = simulate_enar(params, g, np.zeros((n, 0)), no_cov(), t_len,
                              np.random.default_rng(11))
        y_c = panel.y - panel.y.mean(axis=1, keepdims=True)
        emp = y_c @ y_c.T / (panel.y.shape[1] - 1)
        rel = np.linalg.norm(emp - m.gamma0) / np.linalg.norm(m.gamma0)
        assert rel < 0.05

    def test_start_draw_follows_stationary_law(self):
        # y_0 over many seeds: every entry of the sample mean and covariance
        # lies within 5 sampling standard errors of phi and Gamma(0), both
        # taken from the dense oracles rather than the eigenpairs. The
        # six-node graph needs J = 176 > N terms and takes the closed form;
        # N = 30 with 3 isolated nodes needs J = 29 and takes the series
        reps = 4000
        a = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)]:
            a[i, j] = a[j, i] = 1.0
        cases = [(Graph(a), 0.3, 0.5), (graph_with_isolated_nodes(30, 3, 4), 0.1, 0.15)]
        for g, alpha, theta in cases:
            n = g.n
            u = np.linalg.qr(np.random.default_rng(0).standard_normal((n, 2)))[0]
            params = EnarParams(alpha, theta, np.array([1.0, -0.5]), np.array([0.4]), 0.5)
            cov = CovariateSpec(np.array([2.0]))
            big_g = dense_transition(g, params.alpha, params.theta)
            phi = np.linalg.solve(np.eye(n) - big_g, u @ params.beta)
            gamma0 = kron_gamma0(big_g, params.sigma**2 + 2.0 * 0.4**2)
            y0 = np.array([
                simulate_enar(params, g, u, cov, 1, np.random.default_rng(seed)).y[:, 0]
                for seed in range(reps)
            ])
            var = np.diag(gamma0)
            assert np.all(np.abs(y0.mean(axis=0) - phi) < 5 * np.sqrt(var / reps))
            se_cov = np.sqrt((np.outer(var, var) + gamma0**2) / reps)
            assert np.all(np.abs(np.cov(y0, rowvar=False) - gamma0) < 5 * se_cov)


def graph_with_isolated_nodes(n, n_isolated, seed):
    """A random graph on the first n - n_isolated nodes, then isolated ones,
    whose zero Laplacian rows make repeated eigenvalues of G."""
    rng = np.random.default_rng(seed)
    m = n - n_isolated
    a = np.zeros((n, n))
    a[:m, :m] = np.triu((rng.random((m, m)) < 0.3).astype(float), 1)
    a += a.T
    return Graph(a)


class TestSeriesSimulation:
    """The start draw and Panel.phi come from the moving-average series,
    or from the closed form where the series needs more than N terms."""

    def test_series_terms(self):
        assert [series_terms(a, t) for a, t in ((0.2, 0.2), (0.5, -0.4), (0.4, 0.59))] == [
            43, 372, 3895
        ]
        assert series_terms(0.0, 0.0) == 1

    @pytest.mark.parametrize("alpha, theta", [(0.2, 0.2), (-0.3, 0.6), (0.5, -0.45), (0.0, 0.0)])
    def test_phi_matches_closed_form(self, alpha, theta):
        # N = 400 takes the series for rho <= 0.9 (J <= 372); the other
        # draws need more than N terms and take the closed form
        for n, n_isolated, seed in ((12, 0, 1), (40, 5, 2), (400, 9, 3)):
            g = graph_with_isolated_nodes(n, n_isolated, seed)
            b = np.random.default_rng(seed).standard_normal(n)
            params = EnarParams(alpha, theta, np.array([1.0]), np.zeros(0), 0.5)
            panel = simulate_enar(params, g, b[:, None], no_cov(), 1, np.random.default_rng(0))
            m = stationary_moments(g, b, params, no_cov())
            assert np.max(np.abs(panel.phi - m.phi)) < 1e-12

    def test_start_near_unit_root_takes_the_closed_form(self):
        # rho = 1 - 1e-7 would need J of about 4e8 series terms
        g = graph_with_isolated_nodes(30, 3, 7)
        b = np.random.default_rng(8).standard_normal(30)
        params = EnarParams(0.5, 0.4999999, np.array([1.0]), np.zeros(0), 0.5)
        assert series_terms(params.alpha, params.theta) > 10**8
        panel = simulate_enar(params, g, b[:, None], no_cov(), 3, np.random.default_rng(0))
        m = stationary_moments(g, b, params, no_cov())
        assert np.max(np.abs(panel.phi - m.phi)) <= 1e-12 * np.max(np.abs(m.phi))
        assert np.all(np.isfinite(panel.y))

    def test_start_path_leaves_the_recursion_noise(self):
        # one seed, two starts: the series at rho = 0.15 (J = 21 <= N) and
        # the closed form at rho = 0.7 (J = 110 > N)
        g = graph_with_isolated_nodes(25, 2, 6)
        u = np.linalg.qr(np.random.default_rng(0).standard_normal((25, 2)))[0]
        cov = CovariateSpec(np.array([1.0, 2.0]))
        noises, zs = [], []
        for alpha, theta in ((0.05, 0.1), (0.3, 0.4)):
            params = EnarParams(alpha, theta, np.array([1.0, -0.5]), np.array([0.3, 0.2]), 0.5)
            panel = simulate_enar(params, g, u, cov, 10, np.random.default_rng(9))
            big_g = dense_transition(g, alpha, theta)
            y = panel.y
            noises.append(y[:, 1:] - big_g @ y[:, :-1] - (u @ params.beta)[:, None]
                          - panel.z @ params.gamma)
            zs.append(panel.z)
        assert series_terms(0.05, 0.1) <= g.n < series_terms(0.3, 0.4)
        assert np.array_equal(zs[0], zs[1])
        assert np.max(np.abs(noises[0] - noises[1])) < 1e-12


class TestAmnar:
    def test_rate_multiplier_scaling(self):
        # doubling N with s = 1/4 scales the effect by 2^{-1/4}
        r1 = rate_multiplier(16, 4, 0.25)
        r2 = rate_multiplier(32, 4, 0.25)
        assert r2 / r1 == pytest.approx(2 ** -0.25, abs=1e-14)
        assert r1 == pytest.approx(16 ** -0.25 * 4 ** -0.5, abs=1e-15)

    def test_zero_latent_matches_enar_zero_beta(self):
        g = ring_graph(10)
        x = np.random.default_rng(0).standard_normal((10, 3))
        amnar = AmnarParams(0.2, 0.2, np.zeros(2), 0.0, np.array([0.3]), 0.5, 0.25)
        enar = EnarParams(0.2, 0.2, np.zeros(0), np.array([0.3]), 0.5)
        cov = CovariateSpec(np.array([1.5]))
        pa = simulate_amnar(amnar, g, x, cov, 25, np.random.default_rng(77))
        pe = simulate_enar(enar, g, np.zeros((10, 0)), cov, 25, np.random.default_rng(77))
        assert np.array_equal(pa.y, pe.y)
        assert np.array_equal(pa.z, pe.z)

    def test_moments_match_kronecker_oracle(self):
        rng = np.random.default_rng(4)
        g, alpha, theta = random_stationary_instance(rng, n_max=6)
        x = rng.standard_normal((g.n, 3))
        params = AmnarParams(alpha, theta, rng.standard_normal(2), 1.0,
                             np.zeros(0), 0.8, 0.25)
        r = rate_multiplier(g.n, 10, params.s)
        m = stationary_moments(g, r * (x @ params.beta), params, no_cov())
        big_g = dense_transition(g, alpha, theta)
        assert np.max(np.abs(m.gamma0 - kron_gamma0(big_g, params.sigma**2))) < 1e-10
        assert np.allclose((np.eye(g.n) - big_g) @ m.phi, r * (x @ params.beta), atol=1e-10)

    def test_s_bounds_enforced(self):
        with pytest.raises(DataError):
            AmnarParams(0.2, 0.2, np.zeros(2), 1.0, np.zeros(0), 0.5, 0.5)


class TestPanelCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = Panel(y=rng.standard_normal((7, 5)), z=rng.standard_normal((7, 4, 2)))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, str(path))
        back = read_panel_csv(str(path))
        assert np.array_equal(back.y, panel.y)
        assert np.array_equal(back.z, panel.z)

    def test_round_trip_no_covariates(self, tmp_path):
        rng = np.random.default_rng(1)
        panel = Panel(y=rng.standard_normal((4, 6)), z=np.zeros((4, 5, 0)))
        path = tmp_path / "panel0.csv"
        write_panel_csv(panel, str(path))
        back = read_panel_csv(str(path))
        assert np.array_equal(back.y, panel.y)
        assert back.p == 0

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "panel.csv"
        target.mkdir()
        panel = Panel(y=np.zeros((2, 3)), z=np.zeros((2, 2, 0)))
        with pytest.raises(OSError):
            write_panel_csv(panel, str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["panel.csv"]

    def test_missing_row_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("node,t,y,z1\n0,0,1.0,0.5\n0,1,2.0,\n1,0,3.0,0.25\n")
        with pytest.raises(DataError):
            read_panel_csv(str(path))

    @pytest.mark.parametrize("p", [3, 0])
    def test_bytes_match_csv_writer_and_round_trip_bitwise(self, tmp_path, p):
        rng = np.random.default_rng(2)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 1e-7, -1e-7]
        y = rng.standard_normal((4, 6))
        y.flat[: len(special)] = special
        z = rng.standard_normal((4, 5, p))
        if p:
            z.flat[-len(special) :] = special[::-1]
        panel = Panel(y=y, z=z)
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_panel_csv(panel, str(fast))
        write_panel_csv_loop(panel, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
        back = read_panel_csv(str(fast))
        assert back.y.tobytes() == panel.y.tobytes()
        assert back.z.tobytes() == panel.z.tobytes()
        assert back.z.shape == (4, 5, p)

    def test_panel_of_several_write_batches_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        panel = Panel(y=rng.standard_normal((90, 101)), z=rng.standard_normal((90, 100, 2)))
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_panel_csv(panel, str(fast))
        write_panel_csv_loop(panel, str(ref))
        assert fast.read_bytes() == ref.read_bytes()

    def test_shuffled_rows_lf_ends_and_blank_lines_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = Panel(y=rng.standard_normal((5, 4)), z=rng.standard_normal((5, 3, 2)))
        panel.y[2, 1], panel.z[1, 0, 1] = -0.0, 5e-324
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, str(path))
        header, *rows = path.read_bytes().decode().splitlines()
        rows = [rows[k] for k in rng.permutation(len(rows))]
        rows[3:3] = ["", "   "]
        path.write_text("\n".join([header, *rows, ""]), newline="")
        back = read_panel_csv(str(path))
        assert back.y.tobytes() == panel.y.tobytes()
        assert back.z.tobytes() == panel.z.tobytes()

    @pytest.mark.parametrize("body, message", [
        ("node,t,y,z1\n0,0,1.0,0.5\n0,1,2.0,\n0,0,3.0,0.25\n",
         r"row 4: duplicate \(node=0, t=0\)"),
        ("node,t,y,z1\n0,0,1.0,0.5\n0,1,2.0,\n1,0,3.0,0.25\n",
         "missing row for node 1, t 1"),
        ("node,t,y,z1\n0,0,1.0,0.5\n0,1,2.0,\n\n1,1,3.0,\n",
         "missing row for node 1, t 0"),
        ("node,t,y,z1,z2\n0,0,1.0,0.5,x\n0,1,2.0,,\n",
         "row 2: covariates missing or malformed at node 0, t 0"),
        ("node,t,y,z1,z2\n0,1,2.0,,\n0,0,1.0,0.5\n",
         "row 3: covariates missing or malformed at node 0, t 0"),
        ("node,t,y\n0,0,1.0\n\nx,1,2.0\n", r"row 4: cannot parse 'x,1,2.0'"),
        ("node,t,y\n0,0,1.0\n0,1.5,2.0\n", r"row 3: cannot parse '0,1.5,2.0'"),
        ("node,t,y\n0,0,1.0\n0,1,abc\n", r"row 3: cannot parse '0,1,abc'"),
        ("node,t,y\n0,0,1.0\n0,1\n", r"row 3: cannot parse '0,1'"),
        ("node,t,y\n0,0,1.0\n-1,1,2.0\n", "row 3: node -1, t 1 outside"),
        ("node,t,y\n0,0,1.0\n1000000000000,0,2.0\n", "row 3: node 1000000000000, t 0 outside"),
        ("node,time,y\n0,0,1.0\n", "expected header 'node,t,y,...'"),
        ("t,node,y,z1\n0,0,1.0,0.5\n", "expected header"),
        ("node,t\n0,0\n", "expected header"),
        ("", "expected header"),
        ("node,t,y\n\n", "empty panel"),
    ])
    def test_malformed_file_names_offender(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError, match=message):
            read_panel_csv(str(path))

    @pytest.mark.parametrize("y_shape, z_shape, message", [
        ((3, 4), (3, 4, 1), "incoherent panel dims"),
        ((3,), (3, 0, 1), "y must be N x"),
        ((3, 4), (3, 3), "z must be N x T x p"),
    ])
    def test_dimension_coherence_enforced(self, y_shape, z_shape, message):
        with pytest.raises(DimensionMismatch, match=message):
            Panel(y=np.zeros(y_shape), z=np.zeros(z_shape))

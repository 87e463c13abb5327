import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import enarkit
from enarkit import blas
from enarkit.cli import main
from enarkit.network import Graph, write_edge_csv
from enarkit.process import Panel, read_panel_csv, write_panel_csv
from oracles import write_forecast_csv_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sim_config(tmp_path, **overrides):
    cfg = {
        "model": "enar", "generator": "dcmmsbm",
        "n": 30, "t": 20, "k": 2, "seed": 3,
        "out_edges": str(tmp_path / "edges.csv"),
        "out_panel": str(tmp_path / "panel.csv"),
        "out_truth": str(tmp_path / "truth.json"),
    }
    cfg.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSimulate:
    def test_default_parameters_in_truth_json(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["gamma"] == pytest.approx([1 / 3, -1 / 6, 0.0])
        assert truth["alpha"] == 0.2 and truth["theta"] == 0.2
        assert truth["sigma2"] == pytest.approx(0.25)
        assert os.path.exists(cfg["out_edges"])
        assert os.path.exists(cfg["out_panel"])

    def test_nar_model_empty_beta(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, model="nar")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["beta"] == []

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, bogus=1)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert "bogus" in json.loads(err)["message"]

    @pytest.mark.parametrize("key", ["alpha", "gamma", "seed", "n"])
    def test_null_without_none_default_rejected(self, tmp_path, capsys, key):
        path, _ = write_sim_config(tmp_path, **{key: None})
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert f"{key!r} may not be null" in json.loads(err)["message"]

    def test_bool_for_a_number_rejected(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, alpha=False)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert "'alpha' has type bool" in json.loads(err)["message"]
        assert not (tmp_path / "panel.csv").exists()

    def test_non_number_list_element_rejected(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, gamma=["x", 1, 2])
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert "'gamma' element 0 has type str" in json.loads(err)["message"]
        assert not (tmp_path / "panel.csv").exists()

    def test_null_beta_and_rho_keep_their_rules(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, beta=None, rho=None)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["beta"] == [1.0, -0.5]
        assert truth["rho"] == pytest.approx(30 ** -0.5)

    def test_deterministic_given_seed(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path)
        run_cli(capsys, "simulate", "--config", str(path))
        first = (tmp_path / "panel.csv").read_bytes()
        run_cli(capsys, "simulate", "--config", str(path))
        assert (tmp_path / "panel.csv").read_bytes() == first

    @pytest.mark.parametrize("alpha, theta", [(0.2, 0.2), (0.5, 0.45)])
    def test_files_independent_of_blas_threads(self, tmp_path, alpha, theta):
        # this draw has isolated nodes, whose repeated eigenvalues of G let
        # an eigenbasis follow the rounding of however many threads split
        # it. At rho = 0.4 the start series needs J = 43 terms and no basis
        # is formed; at rho = 0.95 it needs J = 764 > N, and the closed-form
        # start takes its eigendecomposition on one BLAS thread
        src = str(Path(enarkit.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            path, _ = write_sim_config(
                out, n=300, t=50, k=3, seed=4, alpha=alpha, theta=theta,
                out_edges=str(out / "edges.csv"), out_panel=str(out / "panel.csv"),
                out_truth=str(out / "truth.json"),
            )
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "enarkit.cli", "simulate", "--config", str(path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = [(out / f).read_bytes()
                                for f in ("edges.csv", "panel.csv", "truth.json")]
        edges = np.loadtxt(tmp_path / "1" / "edges.csv", delimiter=",", skiprows=1, dtype=int)
        assert np.bincount(edges.ravel(), minlength=300).min() == 0  # isolated nodes
        assert outputs["1"] == outputs["2"]

    def test_no_temp_files_linger(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path)
        run_cli(capsys, "simulate", "--config", str(path))
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []

    def test_unwritable_output_is_io_error_without_temp_file(self, tmp_path, capsys):
        (tmp_path / "truth.json").mkdir()
        path, _ = write_sim_config(tmp_path)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "io"
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []


class TestFitPredict:
    @pytest.fixture()
    def simulated(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, n=60, t=120, seed=5)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        return tmp_path, cfg

    def test_fit_json_schema(self, simulated, capsys):
        tmp_path, cfg = simulated
        out = tmp_path / "fit.json"
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "enar", "--k", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["mu_hat"]) == {"beta_1", "beta_2", "alpha", "theta",
                                      "gamma_1", "gamma_2", "gamma_3"}
        assert set(doc["se"]) == set(doc["mu_hat"])
        for key in ("sigma2_hat", "aic", "bic", "diagnostics"):
            assert key in doc

    def test_round_trip_recovers_parameters(self, simulated, capsys):
        tmp_path, cfg = simulated
        out = tmp_path / "fit.json"
        run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                "--model", "enar", "--k", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        # momentum/peer/covariate effects come back within Monte Carlo error
        assert doc["mu_hat"]["alpha"] == pytest.approx(0.2, abs=0.08)
        assert doc["mu_hat"]["theta"] == pytest.approx(0.2, abs=0.15)
        assert doc["mu_hat"]["gamma_1"] == pytest.approx(1 / 3, abs=0.05)

    def test_round_trip_with_truth_latents(self, simulated, capsys):
        # refit the simulated files against the recorded truth latents: the
        # whole parameter vector comes back within Monte Carlo error
        from enarkit.estimate import DesignSpec, build_design, fit_ls
        from enarkit.network import read_edge_csv, normalized_laplacian

        tmp_path, cfg = simulated
        truth = json.loads((tmp_path / "truth.json").read_text())
        panel = read_panel_csv(cfg["out_panel"])
        graph = read_edge_csv(cfg["out_edges"], n_nodes=panel.n)
        u_true = np.array(truth["latent"])
        lap = normalized_laplacian(graph)
        w, y = build_design(panel, lap, u_true, DesignSpec("enar", truth["k"]))
        fit = fit_ls(w, y)
        mu_true = np.array(truth["mu_true"])
        se = np.sqrt(np.clip(np.diag(fit.cov_hat), 1e-30, None))
        assert np.all(np.abs(fit.mu_hat - mu_true) < 5 * se + 1e-3)

    def test_k_with_nar_rejected(self, simulated, capsys):
        tmp_path, cfg = simulated
        code, _, err = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "nar", "--k", "2", "--out", str(tmp_path / "f.json"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_missing_k_rejected(self, simulated, capsys):
        tmp_path, cfg = simulated
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "enar", "--out", str(tmp_path / "f.json"),
        )
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--edges", str(tmp_path / "nope.csv"),
            "--panel", str(tmp_path / "nope2.csv"),
            "--model", "nar", "--out", str(tmp_path / "f.json"),
        )
        assert code == 3

    def test_truncated_fit_json_is_data_error(self, simulated, capsys):
        tmp_path, cfg = simulated
        fit_path = tmp_path / "fit.json"
        fit_path.write_text('{"model": "enar", "k": 2')
        code, _, err = run_cli(
            capsys, "predict", "--fit", str(fit_path), "--edges", cfg["out_edges"],
            "--panel", cfg["out_panel"], "--out", str(tmp_path / "forecast.csv"),
        )
        assert code == 3
        error = json.loads(err)
        assert error["error"] == "DataError" and str(fit_path) in error["message"]
        assert not (tmp_path / "forecast.csv").exists()

    def test_rank_deficiency_is_numerical_error(self, tmp_path, capsys):
        g = Graph(4, np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float))
        write_edge_csv(g, str(tmp_path / "e.csv"))
        panel = Panel(y=np.zeros((4, 5)), z=np.zeros((4, 4, 0)))
        write_panel_csv(panel, str(tmp_path / "p.csv"))
        code, _, err = run_cli(
            capsys, "fit", "--edges", str(tmp_path / "e.csv"),
            "--panel", str(tmp_path / "p.csv"),
            "--model", "nar", "--out", str(tmp_path / "f.json"),
        )
        assert code == 4
        assert json.loads(err)["error"] == "RankDeficient"

    def test_predict_within_panel_reports_mspe(self, simulated, capsys):
        tmp_path, cfg = simulated
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                "--model", "enar", "--k", "2", "--out", str(fit_path))
        code, out, _ = run_cli(
            capsys, "predict", "--fit", str(fit_path),
            "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--window-start", "0", "--window-len", "100",
            "--out", str(tmp_path / "forecast.csv"),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["target_t"] == 100
        assert summary["mspe"] > 0
        rows = (tmp_path / "forecast.csv").read_text().splitlines()
        assert rows[0] == "node,y_hat,y_actual"
        assert len(rows) == 61

    @pytest.mark.parametrize("window", [[], ["--window-len", "100"]])
    def test_forecast_bytes_match_csv_writer(self, simulated, capsys, window):
        from enarkit.estimate import predict_one_step, read_fit_json
        from enarkit.network import read_edge_csv, spectral_embed

        tmp_path, cfg = simulated
        fit_path, out = tmp_path / "fit.json", tmp_path / "forecast.csv"
        data = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        run_cli(capsys, "fit", *data, "--model", "enar", "--k", "2", "--out", str(fit_path))
        code, _, _ = run_cli(
            capsys, "predict", "--fit", str(fit_path), *data, *window, "--out", str(out)
        )
        assert code == 0
        panel = read_panel_csv(cfg["out_panel"])
        graph = read_edge_csv(cfg["out_edges"], n_nodes=panel.n)
        if window:  # condition on t = 99; the panel holds the target y_100
            y_t, z_t, actual = panel.y[:, 99], panel.z[:, 99, :], panel.y[:, 100]
        else:  # forecast past the panel: no covariates, no actual
            y_t, z_t, actual = panel.y[:, -1], np.zeros((panel.n, panel.p)), None
        y_hat = predict_one_step(
            read_fit_json(str(fit_path)), graph, y_t, z_t, spectral_embed(graph, 2).vectors
        )
        write_forecast_csv_loop(y_hat, actual, str(tmp_path / "ref.csv"))
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_enr_fit_on_single_transition(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, n=40, t=1, seed=9)
        run_cli(capsys, "simulate", "--config", str(path))
        out = tmp_path / "enr.json"
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "enr", "--k", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc["mu_hat"]) == ["beta_1", "beta_2", "alpha",
                                       "gamma_1", "gamma_2", "gamma_3"]

    def test_amnar_fit_writes_latent(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, model="amnar", n=40, t=12, seed=2)
        run_cli(capsys, "simulate", "--config", str(path))
        out = tmp_path / "am.json"
        latent = tmp_path / "latent.csv"
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "amnar", "--k", "2", "--s", "0.25", "--seed", "0",
            "--latent-out", str(latent), "--out", str(out),
        )
        assert code == 0
        assert latent.read_text().splitlines()[0] == "node,v,q1,q2"
        doc = json.loads(out.read_text())
        assert list(doc["mu_hat"])[:3] == ["beta_1", "beta_2", "beta_3"]


class TestFitJsonNumbers:
    """Every number predict reads from a fit JSON is checked, and a bad one
    is a data error naming the file."""

    @pytest.fixture()
    def fitted(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, n=30, t=8, seed=6)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        data = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        fits = {}
        for model in ("enar", "amnar"):
            fits[model] = tmp_path / f"{model}.json"
            code, _, _ = run_cli(capsys, "fit", *data, "--model", model, "--k", "2",
                                 "--out", str(fits[model]))
            assert code == 0
        return tmp_path, data, fits

    def predict_with(self, capsys, fitted, model, key, value):
        tmp_path, data, fits = fitted
        doc = json.loads(fits[model].read_text())
        doc[key] = value
        fits[model].write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code, _, err = run_cli(capsys, "predict", "--fit", str(fits[model]), *data,
                               "--out", str(out))
        assert not out.exists()
        return code, json.loads(err)

    @pytest.mark.parametrize("model, key", [
        ("enar", "sigma2_hat"), ("enar", "n_obs"), ("enar", "loglik"),
        ("enar", "aic"), ("enar", "bic"), ("amnar", "r"),
    ])
    def test_non_number_is_data_error(self, fitted, capsys, model, key):
        code, error = self.predict_with(capsys, fitted, model, key, "x")
        assert code == 3
        assert error["error"] == "DataError"
        assert str(fitted[2][model]) in error["message"] and repr(key) in error["message"]

    @pytest.mark.parametrize("key, value, where", [
        ("k", 3.7, "key 'k' has type float"),
        ("grand_mean", "no", "key 'grand_mean' has type str"),
        ("mu_hat", {"beta_1": "1.13"}, "key 'mu_hat' entry 'beta_1' has type str"),
    ])
    def test_wrong_type_is_data_error(self, fitted, capsys, key, value, where):
        doc = json.loads(fitted[2]["enar"].read_text())
        if isinstance(value, dict):
            value = {**doc[key], **value}
        code, error = self.predict_with(capsys, fitted, "enar", key, value)
        assert code == 3
        assert error["error"] == "DataError"
        assert str(fitted[2]["enar"]) in error["message"] and where in error["message"]

    def test_null_r_keeps_the_latent_scale_error(self, fitted, capsys):
        code, error = self.predict_with(capsys, fitted, "amnar", "r", None)
        assert code == 3
        assert "latent scale r" in error["message"]


class TestNegativeSeed:
    """numpy generators take no negative seed, so each way of giving one is
    a data error that writes nothing; mc hashes any integer base seed."""

    @pytest.fixture()
    def simulated(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, n=30, t=8, seed=2)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        return tmp_path, ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]

    def assert_rejected(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        error = json.loads(err)
        assert error["error"] == "DataError" and "negative" in error["message"]

    def test_simulate_config_seed(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path, seed=-5)
        self.assert_rejected(capsys, "simulate", "--config", str(path))
        assert not (tmp_path / "panel.csv").exists()

    def test_simulate_flag(self, tmp_path, capsys):
        path, _ = write_sim_config(tmp_path)
        self.assert_rejected(capsys, "simulate", "--config", str(path), "--seed", "-1")
        assert not (tmp_path / "panel.csv").exists()

    def test_fit_flag(self, simulated, capsys):
        tmp_path, data = simulated
        out = tmp_path / "fit.json"
        self.assert_rejected(capsys, "fit", *data, "--model", "amnar", "--k", "2",
                             "--seed", "-1", "--out", str(out))
        assert not out.exists()

    def test_fit_env_seed(self, simulated, capsys, monkeypatch):
        tmp_path, data = simulated
        monkeypatch.setenv("ENARKIT_SEED", "-1")
        out = tmp_path / "fit.json"
        self.assert_rejected(capsys, "fit", *data, "--model", "amnar", "--k", "2",
                             "--out", str(out))
        assert not out.exists()

    def test_select_k_flag(self, simulated, capsys):
        _, data = simulated
        self.assert_rejected(capsys, "select-k", *data[:2], "--k-max", "3", "--seed", "-1")

    def test_mc_base_seed_may_be_negative(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"],
            "reps": 1, "base_seed": -3,
        }))
        code, _, _ = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 0


BAD_WINDOWS = [
    ["--window-len", "-3"], ["--window-len", "0"],
    ["--window-start", "-4"], ["--window-start", "12"],
]


class TestWindows:
    """fit and predict share one window rule on an N=40, T=10 panel."""

    @pytest.fixture()
    def fitted(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path, n=40, t=10, seed=4)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        data = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        fit_path = tmp_path / "fit.json"
        code, _, _ = run_cli(capsys, "fit", *data, "--model", "enar", "--k", "2",
                             "--out", str(fit_path))
        assert code == 0
        return tmp_path, data, fit_path

    @pytest.mark.parametrize("window", BAD_WINDOWS)
    def test_predict_rejects_windows_outside_the_panel(self, fitted, capsys, window):
        tmp_path, data, fit_path = fitted
        out = tmp_path / "forecast.csv"
        code, stdout, err = run_cli(capsys, "predict", "--fit", str(fit_path), *data,
                                    *window, "--out", str(out))
        assert code == 3 and stdout == ""
        assert json.loads(err)["error"] == "DataError"
        assert not out.exists()

    @pytest.mark.parametrize("window", BAD_WINDOWS + [["--window-len", "1"]])
    def test_fit_rejects_the_same_windows(self, fitted, capsys, window):
        tmp_path, data, _ = fitted
        out = tmp_path / "windowed.json"
        code, _, err = run_cli(capsys, "fit", *data, "--model", "nar", *window,
                               "--out", str(out))
        assert code == 3
        assert json.loads(err)["error"] == "DataError"
        assert not out.exists()

    def test_predict_conditions_on_a_one_point_window(self, fitted, capsys):
        tmp_path, data, fit_path = fitted
        outputs = []
        for name, window in (("one", ["--window-start", "3", "--window-len", "1"]),
                             ("four", ["--window-len", "4"])):
            out = tmp_path / f"{name}.csv"
            code, stdout, _ = run_cli(capsys, "predict", "--fit", str(fit_path), *data,
                                      *window, "--out", str(out))
            assert code == 0
            assert json.loads(stdout)["target_t"] == 4
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSelectK:
    def test_planted_rank_three(self, tmp_path, capsys):
        n = 150
        memberships = np.arange(n) % 3
        p = np.where(memberships[:, None] == memberships[None, :], 0.9, 0.1)
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            iu = np.triu_indices(n, 1)
            a = np.zeros((n, n))
            a[iu] = (rng.random(iu[0].size) < p[iu]).astype(float)
            a = a + a.T
            write_edge_csv(Graph(n, a), str(tmp_path / "g.csv"))
            code, out, _ = run_cli(
                capsys, "select-k", "--edges", str(tmp_path / "g.csv"),
                "--k-max", "6", "--seed", str(seed),
            )
            assert code == 0
            if json.loads(out)["k"] == 3:
                hits += 1
        assert hits >= 3


class TestHelp:
    def test_fit_rate_exponent_defaults_to_the_experiment_default(self):
        from enarkit.bench import ExperimentConfig
        from enarkit.cli import build_parser

        args = build_parser().parse_args(
            ["fit", "--edges", "e.csv", "--panel", "p.csv", "--model", "amnar", "--out", "f.json"]
        )
        assert args.s == ExperimentConfig.s == 0.25

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "select-k" in out

    def test_console_script_installed(self, tmp_path):
        import subprocess, sys

        proc = subprocess.run([sys.executable, "-m", "enarkit.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fit" in proc.stdout


class TestEnvSeed:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        path, cfg = write_sim_config(tmp_path, n=50, t=10, seed=4)
        run_cli(capsys, "simulate", "--config", str(path))
        fit1 = tmp_path / "f1.json"
        fit2 = tmp_path / "f2.json"
        monkeypatch.setenv("ENARKIT_SEED", "11")
        run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                "--model", "amnar", "--k", "2", "--out", str(fit1))
        run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                "--model", "amnar", "--k", "2", "--seed", "11", "--out", str(fit2))
        assert json.loads(fit1.read_text())["mu_hat"] == json.loads(fit2.read_text())["mu_hat"]


class TestMc:
    def test_smoke_grid(self, tmp_path, capsys):
        cfg = {
            "n_values": [15], "t_values": [5], "k_values": [2],
            "generators": ["dcmmsbm"], "truth_models": ["enar"],
            "fit_models": ["enar", "nar"], "reps": 2, "base_seed": 1,
        }
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        summary = tmp_path / "summary.csv"
        code, stdout, _ = run_cli(
            capsys, "mc", "--config", str(cfg_path), "--out", str(out),
            "--summary-out", str(summary),
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["rows"] == 4
        header = out.read_text().splitlines()[0]
        assert header == ("gen,truth,fit,N,T,K,rep,seed,alpha_hat,theta_hat,"
                          "rmse_alpha,rmse_theta,rmse_beta,rmsp,sigma2_hat,"
                          "aic,bic,status,wall_ms")

    @pytest.mark.parametrize("key", ["sigma", "base_seed", "reps"])
    def test_null_without_none_default_rejected(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2],
            "fit_models": ["nar"], "reps": 1, "rho": None, "lsm_max_iters": None, key: None,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert f"{key!r} may not be null" in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_negative_lsm_max_iters_is_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2],
            "truth_models": ["amnar"], "fit_models": ["amnar"], "reps": 1,
            "lsm_max_iters": -1,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert json.loads(err)["error"] == "DataError"
        assert not (tmp_path / "r.csv").exists()

    def test_null_lsm_max_iters_keeps_the_default(self, tmp_path, capsys):
        outputs = []
        for name, extra in (("omitted", {}), ("null", {"lsm_max_iters": None})):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({
                "n_values": [12], "t_values": [4], "k_values": [2],
                "truth_models": ["amnar"], "fit_models": ["amnar"], "reps": 1, **extra,
            }))
            out = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(
                capsys, "mc", "--config", str(cfg_path), "--out", str(out),
                "--summary-out", str(tmp_path / f"{name}_s.csv"), "--no-timing",
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bool_for_an_integer_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        results = tmp_path / "r.csv"
        for reps, expected in ((1, 0), (True, 3)):  # oracle_latents stays a legal bool
            cfg_path.write_text(json.dumps({
                "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"],
                "reps": reps, "oracle_latents": True,
            }))
            code, _, err = run_cli(
                capsys, "mc", "--config", str(cfg_path),
                "--out", str(results), "--summary-out", str(tmp_path / "s.csv"),
            )
            assert code == expected
        assert "'reps' has type bool" in json.loads(err)["message"]

    @pytest.mark.parametrize("override, message", [
        ({"n_values": [12.9], "t_values": ["4"], "k_values": [True]},
         "'n_values' element 0 has type float"),
        ({"t_values": ["4"]}, "'t_values' element 0 has type str"),
        ({"k_values": [True]}, "'k_values' element 0 has type bool"),
        ({"cov_variances": [1, "2", 3]}, "'cov_variances' element 1 has type str"),
        ({"gamma": [True, False, 0]}, "'gamma' element 0 has type bool"),
        ({"fit_models": ["nar", 1]}, "'fit_models' element 1 has type int"),
    ])
    def test_list_elements_are_type_checked(self, tmp_path, capsys, override, message):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"],
            "reps": 1, **override,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert message in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()

    def test_missing_blas_setters_pin_nothing_and_say_so(self, tmp_path, capsys, monkeypatch):
        if blas._thread_controls() is None:
            pytest.skip("no bundled OpenBLAS with thread setters")
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [30], "t_values": [6], "k_values": [2], "fit_models": ["nar", "enar"],
            "reps": 2, "base_seed": 4,
        }))
        runs = []
        for name in ("pinned", "unpinned"):
            if name == "unpinned":
                monkeypatch.setattr(blas, "_thread_controls", lambda: None)
            out = tmp_path / f"{name}.csv"
            code, stdout, _ = run_cli(
                capsys, "mc", "--config", str(cfg_path), "--out", str(out),
                "--summary-out", str(tmp_path / f"{name}_s.csv"), "--no-timing",
            )
            assert code == 0
            runs.append((json.loads(stdout)["blas_threads"], out.read_bytes()))
        assert [threads for threads, _ in runs] == [1, None]
        assert runs[0][1] == runs[1][1]

    def test_csv_independent_of_jobs_and_blas_threads(self, tmp_path):
        # N=600 sits on the Lanczos path, and its draws have isolated nodes,
        # whose repeated Laplacian eigenvalues would let any eigenbasis of
        # the transition matrix follow the rounding of however many threads
        # split it
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [600], "t_values": [50], "k_values": [3],
            "generators": ["dcmmsbm", "dcsbm"], "truth_models": ["enar", "nar"],
            "fit_models": ["enar", "nar"], "reps": 1, "base_seed": 5,
        }))
        src = str(Path(enarkit.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            for jobs in ("1", "2"):
                out = tmp_path / f"r{threads}{jobs}.csv"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
                proc = subprocess.run(
                    [sys.executable, "-m", "enarkit.cli", "mc", "--config", str(cfg_path),
                     "--out", str(out), "--summary-out", str(tmp_path / "s.csv"),
                     "--jobs", jobs, "--no-timing"],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                assert json.loads(proc.stdout)["failures"] == 0
                outputs[threads, jobs] = out.read_bytes()
        assert len(set(outputs.values())) == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"], "reps": 1,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path), "--jobs", jobs,
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"
        assert not (tmp_path / "r.csv").exists()

    def test_reps_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2],
            "fit_models": ["nar"], "reps": 5,
        }))
        code, stdout, _ = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
            "--reps", "1",
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == 1


class TestSlidingWindow:
    def test_enar_beats_nar_mspe_majority(self, tmp_path, capsys):
        # fixed-length training windows slide across a long simulated series;
        # the embedding fit should win most one-step contests when the truth
        # carries latent effects
        path, cfg = write_sim_config(tmp_path, n=25, t=260, k=2, seed=12)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        wins = ties = 0
        n_windows = 200
        window_len = 60
        for i in range(n_windows):
            start = i
            mspe = {}
            for model, extra in (("enar", ["--k", "2"]), ("nar", [])):
                fit_path = tmp_path / f"fit_{model}.json"
                code, _, _ = run_cli(
                    capsys, "fit", "--edges", cfg["out_edges"],
                    "--panel", cfg["out_panel"], "--model", model, *extra,
                    "--window-start", str(start), "--window-len", str(window_len),
                    "--out", str(fit_path),
                )
                assert code == 0
                code, out, _ = run_cli(
                    capsys, "predict", "--fit", str(fit_path),
                    "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                    "--window-start", str(start), "--window-len", str(window_len),
                    "--out", str(tmp_path / f"fc_{model}.csv"),
                )
                assert code == 0
                mspe[model] = json.loads(out)["mspe"]
            if mspe["enar"] < mspe["nar"]:
                wins += 1
            elif mspe["enar"] == mspe["nar"]:
                ties += 1
        assert wins > (n_windows - ties) / 2

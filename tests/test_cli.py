import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import enarkit
from enarkit import bench, blas, cli, errors, network
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

    def test_rdpg_at_rho_one_draws(self, tmp_path, capsys):
        # unit latent rows put the diagonal at 1 + 2^-52; no pair is above 1
        path, _ = write_sim_config(
            tmp_path, model="nar", generator="rdpg", n=30, t=10, k=3, seed=0, rho=1.0
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0, err

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
        assert sorted(os.listdir(tmp_path)) == ["sim.json", "truth.json"]

    @pytest.mark.parametrize("key", ["out_edges", "out_panel", "out_truth"])
    def test_output_in_a_missing_directory_draws_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate drew before checking its outputs")

        monkeypatch.setattr(bench, "simulate_cell_data", forbidden)
        path, _ = write_sim_config(tmp_path, **{key: str(tmp_path / "missing" / "x")})
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, stdout, json.loads(err)["error"]) == (3, "", "io")
        assert str(tmp_path / "missing") in json.loads(err)["message"]
        assert os.listdir(tmp_path) == ["sim.json"]

    def test_output_in_an_unwritable_directory_draws_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # a test run as root cannot make a directory unwritable by chmod
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate drew before checking its outputs")

        access = os.access
        monkeypatch.setattr(bench, "simulate_cell_data", forbidden)
        monkeypatch.setattr(
            os, "access", lambda path, mode, **kw: mode != os.W_OK and access(path, mode, **kw)
        )
        path, _ = write_sim_config(tmp_path)
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, stdout, json.loads(err)["error"]) == (3, "", "io")
        assert "directory not writable" in json.loads(err)["message"]
        assert os.listdir(tmp_path) == ["sim.json"]


    @pytest.mark.parametrize("first, second", [
        ("out_edges", "out_panel"), ("out_edges", "out_truth"), ("out_panel", "out_truth"),
    ])
    def test_two_keys_naming_one_file_draw_and_write_nothing(
        self, tmp_path, capsys, monkeypatch, first, second
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate drew before checking its outputs")

        monkeypatch.setattr(bench, "simulate_cell_data", forbidden)
        same = tmp_path / "same.csv"
        same.write_bytes(b"kept\r\n")
        # the second spelling resolves to the first
        path, _ = write_sim_config(tmp_path, **{first: str(same),
                                                second: os.path.join(tmp_path, ".", "same.csv")})
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, stdout, json.loads(err)) == (3, "", {
            "error": "DataError",
            "message": f"{path}: keys {first!r} and {second!r} name the same file"})
        assert same.read_bytes() == b"kept\r\n"
        assert sorted(os.listdir(tmp_path)) == ["same.csv", "sim.json"]

    @pytest.mark.parametrize("key", ["out_edges", "out_panel", "out_truth"])
    def test_key_naming_the_config_draws_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate drew before checking its outputs")

        monkeypatch.setattr(bench, "simulate_cell_data", forbidden)
        path, _ = write_sim_config(tmp_path, **{key: os.path.join(tmp_path, ".", "sim.json")})
        kept = path.read_bytes()
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, stdout, json.loads(err)) == (3, "", {
            "error": "DataError", "message": f"{path}: key {key!r} names the config file itself"})
        assert path.read_bytes() == kept
        assert os.listdir(tmp_path) == ["sim.json"]


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

    @pytest.mark.parametrize("model", ["enar", "enr", "amnar"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_data_error_before_any_read(self, tmp_path, capsys, model, k):
        # the design spec is checked first, so the missing files are never read
        out = tmp_path / "f.json"
        code, stdout, err = run_cli(
            capsys, "fit", "--edges", str(tmp_path / "no_edges.csv"),
            "--panel", str(tmp_path / "no_panel.csv"), "--model", model, "--k", k,
            "--out", str(out),
        )
        assert code == 3 and stdout == ""
        assert json.loads(err) == {"error": "DataError", "message": f"{model} requires k >= 1"}
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--latent-out"])
    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar"])
    def test_seed_and_latent_out_are_not_fit_options(self, simulated, capsys, model, flag):
        tmp_path, cfg = simulated
        k = [] if model == "nar" else ["--k", "2"]
        value = "0" if flag == "--seed" else str(tmp_path / "latent.csv")
        code, _, err = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", model, *k, flag, value, "--out", str(tmp_path / "f.json"),
        )
        assert code == 2 and json.loads(err)["error"] == "usage"
        assert flag in json.loads(err)["message"]
        assert not (tmp_path / "latent.csv").exists() and not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("model", ["nar", "enar", "enr"])
    def test_s_outside_amnar_rejected(self, simulated, capsys, model):
        tmp_path, cfg = simulated
        k = [] if model == "nar" else ["--k", "2"]
        code, _, err = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", model, *k, "--s", "0.3", "--out", str(tmp_path / "f.json"),
        )
        assert code == 2 and json.loads(err)["error"] == "usage"
        assert "--s" in json.loads(err)["message"]
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("env_seed", ["abc", "-1"])
    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar"])
    def test_fit_that_draws_nothing_reads_no_seed(
        self, simulated, capsys, monkeypatch, model, env_seed
    ):
        tmp_path, cfg = simulated
        monkeypatch.setenv("ENARKIT_SEED", env_seed)
        k = [] if model == "nar" else ["--k", "2"]
        window = ["--window-len", "2"] if model == "enr" else []
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", model, *k, *window, "--out", str(tmp_path / "f.json"),
        )
        assert code == 0

    @pytest.mark.parametrize("model", ["nar", "enar", "amnar"])
    def test_omit_grand_mean_outside_enr_rejected(self, simulated, capsys, model):
        tmp_path, cfg = simulated
        k = [] if model == "nar" else ["--k", "2"]
        code, _, err = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", model, *k, "--omit-grand-mean", "--out", str(tmp_path / "f.json"),
        )
        assert code == 2 and json.loads(err)["error"] == "usage"
        assert not (tmp_path / "f.json").exists()

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
        g = Graph(np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float))
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
        from enarkit.network import read_edge_csv

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
        y_hat = predict_one_step(read_fit_json(str(fit_path)), graph, y_t, z_t)
        write_forecast_csv_loop(y_hat, actual, str(tmp_path / "ref.csv"))
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_forecast_uses_the_fitted_embedding_on_the_lanczos_path(
        self, simulated, capsys, lanczos_path
    ):
        from enarkit.estimate import fit_enar, predict_one_step, read_fit_json
        from enarkit.network import read_edge_csv

        tmp_path, cfg = simulated
        fit_path, out = tmp_path / "fit.json", tmp_path / "forecast.csv"
        data = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        run_cli(capsys, "fit", *data, "--model", "enar", "--k", "2", "--out", str(fit_path))
        code, _, _ = run_cli(capsys, "predict", "--fit", str(fit_path), *data,
                             "--window-len", "100", "--out", str(out))
        assert code == 0
        panel = read_panel_csv(cfg["out_panel"])
        graph = read_edge_csv(cfg["out_edges"], n_nodes=panel.n)
        fit = fit_enar(panel, graph, 2)
        assert np.array_equal(read_fit_json(str(fit_path)).latent, fit.latent)
        y_hat = predict_one_step(fit, graph, panel.y[:, 99], panel.z[:, 99, :])
        write_forecast_csv_loop(y_hat, panel.y[:, 100], str(tmp_path / "ref.csv"))
        # one Lanczos run for the CLI fit and one for the refit here; the
        # CLI forecast makes none
        assert lanczos_path == ["LM"] * 2
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def fit_model(self, simulated, capsys, model):
        """CLI fit of ``model`` (enr on the first transition) and the fit
        made in memory from the same files."""
        from enarkit import estimate
        from enarkit.network import read_edge_csv

        tmp_path, cfg = simulated
        fit_path = tmp_path / f"{model}.json"
        window = ["--window-len", "2"] if model == "enr" else []
        k = [] if model == "nar" else ["--k", "2"]
        code, _, _ = run_cli(capsys, "fit", "--edges", cfg["out_edges"],
                             "--panel", cfg["out_panel"], "--model", model, *k, *window,
                             "--out", str(fit_path))
        assert code == 0
        panel = read_panel_csv(cfg["out_panel"])
        graph = read_edge_csv(cfg["out_edges"], n_nodes=panel.n)
        if model == "amnar":
            fit = estimate.fit_amnar(panel, graph, 2, 0.25)
        elif model == "enr":
            window_panel = Panel(y=panel.y[:, :2].copy(), z=panel.z[:, :1].copy())
            fit = estimate.fit_model(window_panel, graph, estimate.DesignSpec("enr", 2))
        else:
            fit = estimate.fit_enar(panel, graph, 0 if model == "nar" else 2)
        return fit_path, fit

    @pytest.mark.parametrize("model", ["nar", "enar", "enr", "amnar"])
    def test_fit_json_carries_the_latent_block_bit_for_bit(self, simulated, capsys, model):
        fit_path, fit = self.fit_model(simulated, capsys, model)
        doc = json.loads(fit_path.read_text())
        if model == "nar":
            assert "latent" not in doc and fit.latent is None
        else:
            assert np.array(doc["latent"]).tobytes() == fit.latent.tobytes()
            assert fit.latent.shape == (60, 3 if model == "amnar" else 2)

    @pytest.mark.parametrize("model", ["enar", "enr", "amnar"])
    def test_predict_makes_no_embedding_and_no_mle(self, simulated, capsys, monkeypatch, model):
        from enarkit import lsm, network

        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, model)

        def forbidden(*args, **kwargs):
            raise AssertionError("predict re-estimated the latent block")

        monkeypatch.setattr(network, "embed_symmetric", forbidden)
        monkeypatch.setattr(lsm, "fit_lsm", forbidden)
        out = tmp_path / "forecast.csv"
        code, _, _ = run_cli(capsys, "predict", "--fit", str(fit_path),
                             "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                             "--out", str(out))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("cell", [(4, 10), (4, 120)], ids=["lagged", "response-only"])
    def test_non_finite_panel_value_is_data_error(self, simulated, capsys, cell):
        tmp_path, cfg = simulated
        panel = read_panel_csv(cfg["out_panel"])
        panel.y[cell] = np.nan
        bad = tmp_path / "nan_panel.csv"
        write_panel_csv(panel, str(bad))
        out = tmp_path / "f.json"
        code, _, err = run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", str(bad),
                               "--model", "enar", "--k", "2", "--out", str(out))
        assert code == 3
        error = json.loads(err)
        assert error["error"] == "DataError" and "NaN or an infinite value" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_output_in_a_missing_directory_reads_nothing(
        self, simulated, capsys, monkeypatch, command
    ):
        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "enar")

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{command} read its input before checking its output")

        monkeypatch.setattr(cli.process, "read_panel_csv", forbidden)
        before = sorted(os.listdir(tmp_path))
        args = (["--model", "enar", "--k", "2"] if command == "fit"
                else ["--fit", str(fit_path)])
        code, stdout, err = run_cli(capsys, command, *args, "--edges", cfg["out_edges"],
                                    "--panel", cfg["out_panel"],
                                    "--out", str(tmp_path / "missing" / "out"))
        assert (code, stdout, json.loads(err)["error"]) == (3, "", "io")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command, flag, other", [
        ("fit", "--edges", "--out"), ("fit", "--panel", "--out"), ("fit", "--edges", "--panel"),
        ("predict", "--fit", "--out"), ("predict", "--edges", "--out"),
        ("predict", "--panel", "--out"), ("predict", "--fit", "--panel"),
    ])
    def test_two_flags_naming_one_file_are_a_usage_error(
        self, simulated, capsys, command, flag, other
    ):
        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "enar")
        paths = {"--edges": cfg["out_edges"], "--panel": cfg["out_panel"],
                 "--out": str(tmp_path / "out")}
        if command == "predict":
            paths = {"--fit": str(fit_path), **paths}
        inputs = [paths[name] for name in paths if name != "--out"]
        kept = [Path(path).read_bytes() for path in inputs]
        before = sorted(os.listdir(tmp_path))
        paths[other] = os.path.relpath(paths[flag])  # another spelling of the same file
        model = ["--model", "enar", "--k", "2"] if command == "fit" else []
        code, stdout, err = run_cli(capsys, command, *model,
                                    *[arg for item in paths.items() for arg in item])
        assert (code, stdout, json.loads(err)) == (
            2, "", {"error": "usage", "message": f"{flag} and {other} name the same file"})
        assert sorted(os.listdir(tmp_path)) == before
        assert [Path(path).read_bytes() for path in inputs] == kept

    def test_output_hard_linked_to_an_input_leaves_the_input_intact(self, simulated, capsys):
        # the atomic write renames a new file over the link's name, so the
        # panel keeps its inode and its bytes
        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "enar")
        panel = Path(cfg["out_panel"])
        kept = panel.read_bytes()
        link = tmp_path / "link.csv"
        os.link(panel, link)
        code, _, err = run_cli(capsys, "predict", "--fit", str(fit_path),
                               "--edges", cfg["out_edges"], "--panel", str(panel),
                               "--out", str(link))
        assert code == 0, err
        assert panel.read_bytes() == kept
        assert link.read_bytes().startswith(b"node,y_hat\r\n")
        assert os.stat(panel).st_nlink == 1

    # predict with --window-len 10 conditions on t = 9 and forecasts t = 10
    @pytest.mark.parametrize("cells, named", [
        ({("y", 4, 9), ("y", 4, 10)}, "y of node 4 at t = 9"),
        ({("y", 7, 10), ("y", 4, 10)}, "y of node 4 at t = 10"),
        ({("z", 5, 9)}, "z of node 5 at t = 9"),
    ], ids=["origin", "target", "covariate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_predict_rejects_a_non_finite_cell_it_reads(
        self, simulated, capsys, cells, named, value
    ):
        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "enar")
        panel = read_panel_csv(cfg["out_panel"])
        for name, node, t in cells:
            getattr(panel, name)[node, t] = value
        bad = tmp_path / "bad_panel.csv"
        write_panel_csv(panel, str(bad))
        out = tmp_path / "forecast.csv"
        code, stdout, err = run_cli(capsys, "predict", "--fit", str(fit_path),
                                    "--edges", cfg["out_edges"], "--panel", str(bad),
                                    "--window-len", "10", "--out", str(out))
        assert (code, stdout) == (3, "")
        assert json.loads(err) == {"error": "DataError",
                                   "message": f"{bad}: {named} is not finite"}
        assert not out.exists()

    def test_predict_ignores_a_non_finite_cell_it_does_not_read(self, simulated, capsys):
        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "enar")
        panel = read_panel_csv(cfg["out_panel"])
        panel.y[4, 8] = panel.z[4, 10, 0] = np.nan
        bad = tmp_path / "bad_panel.csv"
        write_panel_csv(panel, str(bad))
        code, _, _ = run_cli(capsys, "predict", "--fit", str(fit_path),
                             "--edges", cfg["out_edges"], "--panel", str(bad),
                             "--window-len", "10", "--out", str(tmp_path / "forecast.csv"))
        assert code == 0

    def test_predict_rejects_a_forecast_that_overflows(self, simulated, capsys):
        # every cell and the fit are finite, yet y = 1.7e308 at the origin
        # overflows the forecast product of some nodes
        from enarkit.estimate import predict_one_step, read_fit_json
        from enarkit.network import read_edge_csv

        tmp_path, cfg = simulated
        fit_path, _ = self.fit_model(simulated, capsys, "nar")
        panel = read_panel_csv(cfg["out_panel"])
        panel.y[:, 9] = 1.7e308
        big = tmp_path / "big_panel.csv"
        write_panel_csv(panel, str(big))
        y_hat = predict_one_step(read_fit_json(str(fit_path)),
                                 read_edge_csv(cfg["out_edges"], panel.n),
                                 panel.y[:, 9], panel.z[:, 9, :])
        first = int(np.flatnonzero(~np.isfinite(y_hat))[0])
        out = tmp_path / "forecast.csv"
        code, stdout, err = run_cli(capsys, "predict", "--fit", str(fit_path),
                                    "--edges", cfg["out_edges"], "--panel", str(big),
                                    "--window-len", "10", "--out", str(out))
        assert (code, stdout) == (4, "")
        assert json.loads(err) == {
            "error": "NumericalError",
            "message": f"forecast y_hat of node {first} at t = 10 is not finite"}
        assert not out.exists()

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
        before = set(tmp_path.iterdir())
        code, _, _ = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "amnar", "--k", "2", "--s", "0.25", "--out", str(out),
        )
        assert code == 0
        assert set(tmp_path.iterdir()) - before == {out}
        doc = json.loads(out.read_text())
        assert list(doc["mu_hat"])[:3] == ["beta_1", "beta_2", "beta_3"]
        # the fit's own block [Q | v]
        assert np.array(doc["latent"]).shape == (40, 3)


class TestInputEncoding:
    @pytest.mark.parametrize("which, bad", [("out_edges", b"\xff"), ("out_panel", b"\xe9")],
                             ids=["edges", "panel"])
    def test_csv_byte_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys, which, bad):
        path, cfg = write_sim_config(tmp_path)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        target = Path(cfg[which])
        header, first, rest = target.read_bytes().split(b"\r\n", 2)
        target.write_bytes(b"\r\n".join([header, first + bad, rest]))
        out = tmp_path / "fit.json"
        code, stdout, err = run_cli(
            capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
            "--model", "nar", "--out", str(out),
        )
        error = json.loads(err)
        assert (code, stdout, error["error"]) == (3, "", "DataError")
        assert error["message"].startswith(f"{target}: row 2: not UTF-8: 'utf-8' codec")
        assert not out.exists()


class TestLargeRoundTrip:
    """simulate -> fit -> predict at N = 10^4 (about half a million edges)."""

    N = 10_000

    def round_trip(self, tmp_path, capsys):
        tmp_path.mkdir()
        path, cfg = write_sim_config(tmp_path, n=self.N, t=5, k=3, seed=21)
        fit, forecast = tmp_path / "fit.json", tmp_path / "forecast.csv"
        inputs = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        for argv in (["simulate", "--config", str(path)],
                     ["fit", *inputs, "--model", "enar", "--k", "3", "--out", str(fit)],
                     ["predict", "--fit", str(fit), *inputs, "--out", str(forecast)]):
            assert run_cli(capsys, *argv)[0] == 0
        return cfg, {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    def test_outputs_repeat_byte_for_byte(self, tmp_path, capsys):
        cfg, first = self.round_trip(tmp_path / "a", capsys)
        _, second = self.round_trip(tmp_path / "b", capsys)
        assert set(first) == {"edges.csv", "panel.csv", "truth.json", "sim.json",
                              "fit.json", "forecast.csv"}
        first.pop("sim.json"), second.pop("sim.json")  # names its own directory
        assert first == second
        assert first["forecast.csv"].count(b"\r\n") == self.N + 1

        # each reader's traced peak is a small multiple of what it returns
        tracemalloc.start()
        try:
            panel = read_panel_csv(cfg["out_panel"])
            panel_bytes = panel.y.nbytes + panel.z.nbytes
            panel_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            graph = network.read_edge_csv(cfg["out_edges"], n_nodes=panel.n)
            edge_peak = tracemalloc.get_traced_memory()[1] - panel_bytes
        finally:
            tracemalloc.stop()
        a = graph.adjacency
        edge_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        assert panel_peak / panel_bytes < 4
        assert edge_peak / edge_bytes < 4

        # the edge writer's traced peak is a small multiple of its two int64
        # pair arrays, and it writes the simulated file's bytes
        again = tmp_path / "edges-again.csv"
        tracemalloc.start()
        try:
            network.write_edge_csv(graph, str(again))
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.read_bytes() == first["edges.csv"]
        assert write_peak / (2 * 8 * (a.nnz // 2)) <= 3


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
        return self.predict_edited(capsys, fitted, model, lambda doc: doc.__setitem__(key, value))

    def predict_edited(self, capsys, fitted, model, edit):
        tmp_path, data, fits = fitted
        doc = json.loads(fits[model].read_text())
        edit(doc)
        fits[model].write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code, _, err = run_cli(capsys, "predict", "--fit", str(fits[model]), *data,
                               "--out", str(out))
        assert not out.exists()
        return code, json.loads(err)

    @pytest.mark.parametrize("model", ["enar", "amnar"])
    def test_key_sorted_fit_json_forecasts_byte_identically(self, fitted, capsys, model):
        # as `json.dump(..., sort_keys=True)` or `jq -S` rewrites it
        tmp_path, data, fits = fitted
        forecasts = []
        for name in ("as-written", "sorted"):
            out = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(capsys, "predict", "--fit", str(fits[model]), *data,
                                 "--out", str(out))
            assert code == 0
            forecasts.append(out.read_bytes())
            doc = json.loads(fits[model].read_text())
            fits[model].write_text(json.dumps(doc, sort_keys=True))
        assert list(doc["mu_hat"])[0] == "alpha"
        assert forecasts[0] == forecasts[1]

    @pytest.mark.parametrize("key, edit", [
        ("mu_hat", lambda table: table.pop("theta")),
        ("mu_hat", lambda table: table.__setitem__("delta", 1.0)),
        ("se", lambda table: table.pop("gamma_3")),
        ("se", lambda table: table.__setitem__("beta_9", 1.0)),
    ], ids=["mu_hat-missing", "mu_hat-extra", "se-missing", "se-extra"])
    def test_missing_or_extra_coefficient_name_is_data_error(self, fitted, capsys, key, edit):
        _, _, fits = fitted
        code, error = self.predict_edited(capsys, fitted, "enar", lambda doc: edit(doc[key]))
        assert code == 3
        assert error["error"] == "DataError"
        assert str(fits["enar"]) in error["message"] and repr(key) in error["message"]

    @pytest.mark.parametrize("model, key", [
        ("enar", "sigma2_hat"), ("enar", "n_obs"), ("enar", "loglik"),
        ("enar", "aic"), ("enar", "bic"), ("amnar", "r"),
    ])
    def test_non_number_is_data_error(self, fitted, capsys, model, key):
        code, error = self.predict_with(capsys, fitted, model, key, "x")
        assert code == 3
        assert error["error"] == "DataError"
        assert str(fitted[2][model]) in error["message"] and repr(key) in error["message"]

    @pytest.mark.parametrize("model, key", [
        ("amnar", "r"), ("amnar", "s"), ("enar", "sigma2_hat"),
        ("enar", "loglik"), ("enar", "aic"), ("enar", "bic"),
    ])
    def test_nan_number_is_data_error(self, fitted, capsys, model, key):
        code, error = self.predict_with(capsys, fitted, model, key, float("nan"))
        message = f"{fitted[2][model]}: key {key!r} is nan, not a finite number"
        assert (code, error) == (3, {"error": "DataError", "message": message})

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

    @pytest.mark.parametrize("model, key, value, where", [
        ("enar", "model", "x", "unknown model 'x'"),
        ("enar", "k", 0, "enar requires k >= 1"),
        ("amnar", "s", 0.7, "amnar requires s in (0, 1/2)"),
    ])
    def test_invalid_spec_is_data_error_naming_the_file(
        self, fitted, capsys, model, key, value, where
    ):
        code, error = self.predict_with(capsys, fitted, model, key, value)
        assert (code, error["error"]) == (3, "DataError")
        assert error["message"].startswith(f"{fitted[2][model]}: {where}")

    @pytest.mark.parametrize("model, edit, kind, where", [
        ("enar", lambda doc: doc.pop("latent"), "DataError", "no key 'latent'; refit"),
        ("amnar", lambda doc: doc.pop("latent"), "DataError", "no key 'latent'; refit"),
        ("enar", lambda doc: doc.update(latent="x"), "DataError", "key 'latent' has type str"),
        ("enar", lambda doc: doc["latent"][0].__setitem__(0, True), "DataError",
         "key 'latent' element 0 element 0 has type bool"),
        ("amnar", lambda doc: doc["latent"][3].pop(), "DataError",
         "key 'latent' row 3 has 2 entries, expected 3"),
        ("enar", lambda doc: doc["latent"][1].__setitem__(1, float("nan")), "DataError",
         "key 'latent' element 1 element 1 is nan, not a finite number"),
        ("amnar", lambda doc: doc["latent"][2].__setitem__(0, float("-inf")), "DataError",
         "key 'latent' element 2 element 0 is -inf, not a finite number"),
        ("enar", lambda doc: doc["mu_hat"].update(alpha=float("nan")), "DataError",
         "key 'mu_hat' entry 'alpha' is nan, not a finite number"),
        ("enar", lambda doc: doc["se"].update(theta=float("inf")), "DataError",
         "key 'se' entry 'theta' is inf, not a finite number"),
        ("enar", lambda doc: doc["latent"][0].__setitem__(1, 10**400), "DataError",
         "key 'latent' element 0 element 1 is an integer beyond the double range, "
         "not a finite number"),
        ("enar", lambda doc: doc["latent"].pop(), "DimensionMismatch",
         "latent matrix has shape (29, 2), expected (30, 2)"),
        ("enar", lambda doc: doc.pop("model"), "DataError", "malformed fit JSON ('model')"),
    ])
    def test_malformed_latent_or_coefficient_is_data_error(
        self, fitted, capsys, model, edit, kind, where
    ):
        code, error = self.predict_edited(capsys, fitted, model, edit)
        assert code == 3
        assert error["error"] == kind and where in error["message"]
        if kind == "DataError":
            assert str(fitted[2][model]) in error["message"]

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
            write_edge_csv(Graph(a), str(tmp_path / "g.csv"))
            code, out, _ = run_cli(
                capsys, "select-k", "--edges", str(tmp_path / "g.csv"),
                "--k-max", "6", "--seed", str(seed),
            )
            assert code == 0
            if json.loads(out)["k"] == 3:
                hits += 1
        assert hits >= 3

    def test_negative_node_count_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst\n")
        code, stdout, err = run_cli(capsys, "select-k", "--edges", str(path),
                                    "--k-max", "1", "--n", "-1")
        assert code == 3 and stdout == ""
        error = json.loads(err)
        assert error["error"] == "DataError" and "node count -1" in error["message"]


def _error_types():
    """Every subclass of EnarkitError in enarkit.errors, by name."""
    found, todo = [], list(errors.EnarkitError.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls.__module__ == errors.__name__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


class TestExitCodes:
    @pytest.mark.parametrize("cls", _error_types() + [cli.UsageError],
                             ids=lambda cls: cls.__name__)
    def test_each_error_type_exits_with_its_code(self, tmp_path, capsys, monkeypatch, cls):
        args = {errors.InvalidProbability: (0, 1, 1.5), errors.RankDeficient: ([2],)}
        exc = cls(*args.get(cls, ("boom",)))

        def raise_it(_args):
            raise exc

        monkeypatch.setattr(cli, "cmd_select_k", raise_it)
        code, stdout, err = run_cli(capsys, "select-k", "--edges", str(tmp_path / "g.csv"),
                                    "--k-max", "2")
        # every type belongs to a family, which fixes its code
        families = {cli.UsageError: 2, errors.DataError: 3, errors.NumericalError: 4}
        expected = [c for family, c in families.items() if issubclass(cls, family)]
        assert (code, stdout) == (cls.exit_code, "") and expected == [code]
        kind = "usage" if cls is cli.UsageError else cls.__name__
        assert json.loads(err) == {"error": kind, "message": str(exc)}


class TestDegenerateInputs:
    """Inputs that used to crash with exit 1 and a traceback: an edgeless
    graph above the dense eigensolver's size (ARPACK's start vector lies in
    the null space) and finite panels whose scale overflows the covariance."""

    @staticmethod
    def edgeless(tmp_path):
        n = 200
        assert n > network.DENSE_EIG_LIMIT
        rng = np.random.default_rng(0)
        write_panel_csv(Panel(y=rng.standard_normal((n, 6)), z=rng.standard_normal((n, 5, 1))),
                        str(tmp_path / "p.csv"))
        (tmp_path / "g.csv").write_text("src,dst\n")
        return ["--edges", str(tmp_path / "g.csv")], ["--panel", str(tmp_path / "p.csv")]

    @staticmethod
    def scaled(tmp_path, scale):
        n = 30
        rng = np.random.default_rng(1)
        y, z = rng.standard_normal((n, 9)), rng.standard_normal((n, 8, 1))
        write_panel_csv(Panel(y=scale * y, z=scale * z), str(tmp_path / "p.csv"))
        (tmp_path / "g.csv").write_text(
            "src,dst\n" + "".join(f"{i},{(i + 1) % n}\n" for i in range(n)))
        return ["--edges", str(tmp_path / "g.csv")], ["--panel", str(tmp_path / "p.csv")]

    @pytest.mark.parametrize("case, command, error, code", [
        ("edgeless", ["fit", "--model", "enar", "--k", "2"], "EigConvergenceFailure", 4),
        ("edgeless", ["fit", "--model", "enr", "--k", "2", "--window-len", "2"],
         "EigConvergenceFailure", 4),
        ("edgeless", ["select-k", "--k-max", "3", "--n", "200"], "EigConvergenceFailure", 4),
        (1e155, ["fit", "--model", "nar"], "DataError", 3),
        (1e-160, ["fit", "--model", "nar"], "DataError", 3),
        (1e-200, ["fit", "--model", "nar"], "DataError", 3),
    ], ids=["enar-edgeless", "enr-edgeless", "select-k-edgeless",
            "nar-1e155", "nar-1e-160", "nar-1e-200"])
    def test_exits_with_a_typed_error_and_writes_nothing(
        self, tmp_path, capsys, case, command, error, code
    ):
        edges, panel = (self.edgeless(tmp_path) if case == "edgeless"
                        else self.scaled(tmp_path, case))
        out = tmp_path / "fit.json"
        argv = command + edges + (panel + ["--out", str(out)] if command[0] == "fit" else [])
        got, stdout, err = run_cli(capsys, *argv)
        assert (got, stdout, json.loads(err)["error"]) == (code, "", error)
        assert not out.exists()
        if case == "edgeless":
            assert "graph with no edges" in json.loads(err)["message"]


class TestHelp:
    def test_fit_rate_exponent_defaults_to_the_experiment_default(self, tmp_path, capsys):
        from enarkit.bench import ExperimentConfig

        path, cfg = write_sim_config(tmp_path, model="amnar", n=20, t=4, seed=1)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        out = tmp_path / "am.json"
        code, _, _ = run_cli(capsys, "fit", "--edges", cfg["out_edges"],
                             "--panel", cfg["out_panel"], "--model", "amnar", "--k", "2",
                             "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["s"] == ExperimentConfig.s == 0.25

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out and "select-k" in out

    def test_readme_command_lines_use_parser_options(self):
        # every --flag on an `enarkit <cmd>` line of the README's bash blocks
        # must be an option of that subcommand, so no removed flag lingers
        import argparse
        import re

        from enarkit.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.S | re.M)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        seen = set()
        for line in lines:
            words = line.split("#")[0].split()
            if words[:1] != ["enarkit"]:
                continue
            command = words[1]
            assert command in sub.choices, line
            options = sub.choices[command]._option_string_actions
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", " ".join(words)):
                assert flag in options, f"README: {flag} is not an option of {command}: {line}"
            seen.add(command)
        assert seen == set(sub.choices)

    def test_readme_python_example_runs(self, capsys):
        import re

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
        assert len(blocks) == 1
        scope = {}
        exec(compile(blocks[0], "README.md", "exec"), scope)
        assert isinstance(scope["fit"], enarkit.FitResult)
        assert capsys.readouterr().out

    def test_console_script_installed(self, tmp_path):
        import subprocess, sys

        src = str(Path(enarkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "enarkit.cli", "--help"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fit" in proc.stdout


class TestEnvSeed:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        cfg = {"n": 30, "t": 10, "k": 2, "out_edges": str(tmp_path / "edges.csv"),
               "out_panel": str(tmp_path / "panel.csv"), "out_truth": str(tmp_path / "truth.json")}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("ENARKIT_SEED", "11")
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        from_env = (tmp_path / "panel.csv").read_bytes()
        monkeypatch.delenv("ENARKIT_SEED")
        assert run_cli(capsys, "simulate", "--config", str(path), "--seed", "11")[0] == 0
        assert (tmp_path / "panel.csv").read_bytes() == from_env

    @pytest.mark.parametrize("env, message", [
        ("abc", "ENARKIT_SEED='abc' is not an integer"),
        ("1.5", "ENARKIT_SEED='1.5' is not an integer"),
        ("-2", "seed -2 is negative"),
    ])
    def test_env_seed_that_numpy_cannot_take_is_a_data_error(
        self, tmp_path, capsys, monkeypatch, env, message
    ):
        path, cfg = write_sim_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["seed"]
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("ENARKIT_SEED", env)
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, stdout) == (3, "")
        assert json.loads(err) == {"error": "DataError", "message": message}
        assert not os.path.exists(cfg["out_panel"])

    def test_amnar_fit_reads_no_env_seed(self, tmp_path, capsys, monkeypatch):
        path, cfg = write_sim_config(tmp_path, model="amnar", n=50, t=10, seed=4)
        run_cli(capsys, "simulate", "--config", str(path))
        fits = []
        for env in ("0", "99"):
            monkeypatch.setenv("ENARKIT_SEED", env)
            out = tmp_path / f"f{env}.json"
            assert run_cli(capsys, "fit", "--edges", cfg["out_edges"], "--panel", cfg["out_panel"],
                           "--model", "amnar", "--k", "2", "--out", str(out))[0] == 0
            fits.append(out.read_bytes())
        assert fits[0] == fits[1]


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

    def test_rdpg_grid_at_rho_one_writes_every_row_ok(self, tmp_path, capsys):
        cfg = {
            "n_values": [30, 200], "t_values": [10], "k_values": [3],
            "generators": ["rdpg"], "truth_models": ["nar", "enar"],
            "fit_models": ["nar", "enar"], "reps": 3, "base_seed": 0, "rho": 1.0,
        }
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        code, _, _ = run_cli(
            capsys, "mc", "--config", str(cfg_path), "--out", str(out),
            "--summary-out", str(tmp_path / "summary.csv"),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        status = lines[0].split(",").index("status")
        assert [line.split(",")[status] for line in lines[1:]] == ["ok"] * 24

    @pytest.mark.parametrize("key", ["sigma", "base_seed", "reps"])
    def test_null_without_none_default_rejected(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2],
            "fit_models": ["nar"], "reps": 1, "rho": None, "beta": None, key: None,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert f"{key!r} may not be null" in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists()

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

    @pytest.mark.parametrize("missing", ["n_values", "t_values", "k_values"])
    def test_missing_required_key_is_a_data_error(self, tmp_path, capsys, missing):
        doc = {"n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"]}
        del doc[missing]
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert json.loads(err) == {
            "error": "DataError", "message": f"{cfg_path}: missing required key {missing!r}"
        }
        assert not (tmp_path / "r.csv").exists()

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

    def assert_simulate_and_mc_reject(self, tmp_path, capsys, model, params, message):
        """``simulate`` and ``mc`` of a ``model`` truth with ``params`` both
        exit 3 with a DataError before any row is drawn."""
        path, _ = write_sim_config(tmp_path, model=model, **params)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3 and json.loads(err)["error"] == "DataError"
        assert message in json.loads(err)["message"]
        assert not (tmp_path / "panel.csv").exists()
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [30, 40], "t_values": [4], "k_values": [2], "reps": 1,
            "truth_models": [model], **params,
        }))
        code, _, err = run_cli(
            capsys, "mc", "--config", str(cfg_path),
            "--out", str(tmp_path / "r.csv"), "--summary-out", str(tmp_path / "s.csv"),
        )
        assert code == 3 and json.loads(err)["error"] == "DataError"
        assert message in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_gamma_and_cov_variances_lengths_must_match(self, tmp_path, capsys):
        self.assert_simulate_and_mc_reject(
            tmp_path, capsys, "enar", {"cov_variances": [1.0, 2.0]},
            "gamma has 3 entries but cov_variances has 2",
        )

    @pytest.mark.parametrize("rho", [1.0, 1.5, 0.0])
    def test_amnar_truth_rho_must_lie_in_unit_interval(self, tmp_path, capsys, rho):
        self.assert_simulate_and_mc_reject(
            tmp_path, capsys, "amnar", {"rho": rho}, "an amnar truth needs rho in (0, 1)"
        )

    # configs whose rows all failed with the same error, whatever the seed;
    # simulate draws the same truth and fits nothing
    @pytest.mark.parametrize("params, error, code, sim_code", [
        ({"sigma": -1}, "DataError", 3, 3),
        ({"sigma": -1, "truth_models": ["amnar"]}, "DataError", 3, 3),
        ({"alpha": 0.7, "theta": 0.5}, "NotStationary", 4, 4),
        ({"cov_variances": [3.0, 0.0, 1.0]}, "DataError", 3, 3),
        ({"s": 0.7, "truth_models": ["amnar"]}, "DataError", 3, 3),
        ({"s": 0.7, "fit_models": ["amnar"]}, "DataError", 3, 0),
        ({"rho": 1.5, "generators": ["rdpg"]}, "DataError", 3, 3),
        ({"rho": -0.1}, "DataError", 3, 3),
        ({"beta": [1.0, -0.5]}, "DimensionMismatch", 3, 3),
        ({"k_values": [40]}, "ShapeMismatch", 3, 3),
    ], ids=["sigma-enar", "sigma-amnar", "stationarity", "cov-variance", "s-amnar-truth",
            "s-amnar-fit", "rho-rdpg", "rho-negative", "beta", "k-above-n"])
    def test_seed_independent_errors_stop_mc_before_any_row(
        self, tmp_path, capsys, params, error, code, sim_code
    ):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [30], "t_values": [5], "k_values": [3], "fit_models": ["nar"],
            "reps": 1, **params,
        }))
        results = tmp_path / "r.csv"
        got, stdout, err = run_cli(capsys, "mc", "--config", str(cfg_path),
                                   "--out", str(results), "--summary-out", str(tmp_path / "s.csv"))
        assert (got, stdout, json.loads(err)["error"]) == (code, "", error)
        assert not results.exists()
        sim_params = {key: params[key] for key in params if key in bench.PARAM_TYPES}
        path, _ = write_sim_config(
            tmp_path, n=30, t=5, k=params.get("k_values", [3])[0], **sim_params,
            model=params.get("truth_models", ["enar"])[0],
            generator=params.get("generators", ["dcmmsbm"])[0],
        )
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == sim_code

    @pytest.mark.parametrize("flag", ["--out", "--summary-out"])
    def test_output_in_a_missing_directory_stops_mc_before_any_row(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("mc ran a row before checking its outputs")

        monkeypatch.setattr(bench, "run_grid", forbidden)
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"], "reps": 1,
        }))
        outputs = {"--out": str(tmp_path / "r.csv"), "--summary-out": str(tmp_path / "s.csv"),
                   flag: str(tmp_path / "missing" / "x.csv")}
        code, stdout, err = run_cli(capsys, "mc", "--config", str(cfg_path),
                                    *[arg for item in outputs.items() for arg in item])
        assert (code, stdout, json.loads(err)["error"]) == (3, "", "io")
        assert os.listdir(tmp_path) == ["mc.json"]

    @pytest.mark.parametrize("link", [False, True])
    def test_out_and_summary_out_naming_one_file_stop_mc_before_any_row(
        self, tmp_path, capsys, monkeypatch, link
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("mc ran a row before checking its outputs")

        monkeypatch.setattr(bench, "run_grid", forbidden)
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"], "reps": 1,
        }))
        results = tmp_path / "r.csv"
        results.write_bytes(b"kept\r\n")
        summary = tmp_path / "s.csv"
        if link:
            summary.symlink_to(results)
        else:
            summary = tmp_path / "." / "r.csv"
        before = sorted(os.listdir(tmp_path))
        code, stdout, err = run_cli(capsys, "mc", "--config", str(cfg_path), "--out", str(results),
                                    "--summary-out", str(summary))
        assert (code, stdout, json.loads(err)) == (2, "", {
            "error": "usage", "message": "--out and --summary-out name the same file"})
        assert results.read_bytes() == b"kept\r\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flag", ["--out", "--summary-out"])
    def test_output_naming_the_config_stops_mc_before_any_row(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("mc ran a row before checking its outputs")

        monkeypatch.setattr(bench, "run_grid", forbidden)
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"], "reps": 1,
        }))
        kept = cfg_path.read_bytes()
        paths = {"--out": str(tmp_path / "r.csv"), "--summary-out": str(tmp_path / "s.csv"),
                 flag: str(cfg_path)}
        code, stdout, err = run_cli(capsys, "mc", "--config", str(cfg_path),
                                    *[arg for item in paths.items() for arg in item])
        assert (code, stdout, json.loads(err)) == (2, "", {
            "error": "usage", "message": f"--config and {flag} name the same file"})
        assert cfg_path.read_bytes() == kept
        assert os.listdir(tmp_path) == ["mc.json"]

    def test_bad_group_by_field_stops_mc_before_any_row(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [12], "t_values": [4], "k_values": [2], "fit_models": ["nar"], "reps": 1,
        }))
        results, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        code, stdout, err = run_cli(capsys, "mc", "--config", str(cfg_path), "--out", str(results),
                                    "--summary-out", str(summary), "--group-by", "gen,colour")
        assert (code, stdout, json.loads(err)) == (
            3, "", {"error": "DataError", "message": "cannot group by 'colour'"})
        assert not results.exists() and not summary.exists()

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


class TestNonFiniteConfigNumbers:
    """Every number of a simulate or mc config must be finite in a double;
    JSON's NaN and Infinity and a literal beyond the double range are a
    DataError naming the file and the key, and nothing is written."""

    SIM = {"n": 30, "t": 5, "k": 2, "out_edges": "e.csv", "out_panel": "p.csv",
           "out_truth": "t.json"}
    MC = {"n_values": [30], "t_values": [5], "k_values": [2], "reps": 1}

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
    ])
    @pytest.mark.parametrize("key", list(bench.PARAM_TYPES))
    @pytest.mark.parametrize("command", ["simulate", "mc"])
    def test_number_that_is_not_finite_is_a_data_error(
        self, tmp_path, capsys, monkeypatch, command, key, literal, shown
    ):
        monkeypatch.chdir(tmp_path)
        listed = isinstance(bench.PARAM_TYPES[key], list)  # put it in a list's element 0
        doc = {**(self.SIM if command == "simulate" else self.MC), key: "@"}
        text = json.dumps(doc).replace('"@"', f"[{literal}]" if listed else literal)
        Path("config.json").write_text(text)
        argv = ["--config", "config.json"] + (["--out", "r.csv", "--summary-out", "s.csv"]
                                              if command == "mc" else [])
        code, stdout, err = run_cli(capsys, command, *argv)
        where = f"key {key!r}" + (" element 0" if listed else "")
        assert (code, stdout) == (3, "")
        assert json.loads(err) == {"error": "DataError", "message":
                                   f"config.json: {where} is {shown}, not a finite number"}
        assert os.listdir(tmp_path) == ["config.json"]


class TestStrictJson:
    """Every JSON file and every printed line of each command is strict
    JSON: it parses with NaN and Infinity rejected."""

    @staticmethod
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    def strict(self, text):
        return json.loads(text, parse_constant=self.reject)

    def test_every_output_parses_without_nan_or_infinity(self, tmp_path, capsys):
        printed = []

        def run(*argv):
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            printed.extend(stdout.splitlines())

        for model in ("nar", "enar", "amnar"):
            path, _ = write_sim_config(
                tmp_path, model=model, n=40, t=12, out_truth=str(tmp_path / f"{model}.json"))
            run("simulate", "--config", str(path))
        data = ["--edges", str(tmp_path / "edges.csv"), "--panel", str(tmp_path / "panel.csv")]
        for model, extra in (("nar", []), ("enar", ["--k", "2"]), ("amnar", ["--k", "2"]),
                             ("enr", ["--k", "2", "--window-len", "2"])):
            fit = str(tmp_path / f"fit_{model}.json")
            run("fit", *data, "--model", model, *extra, "--out", fit)
            run("predict", "--fit", fit, *data, "--window-len", "8",
                "--out", str(tmp_path / f"{model}.csv"))
        run("select-k", "--edges", str(tmp_path / "edges.csv"), "--k-max", "3")
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"n_values": [20], "t_values": [5], "k_values": [2],
                                   "reps": 1, "fit_models": ["nar", "enar"]}))
        run("mc", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"))
        assert len(printed) == 3 + 4 * 2 + 1 + 1
        for line in printed:
            self.strict(line)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 3 + 4 + 2  # truths, fits, and the simulate and mc configs
        for path in files:
            self.strict(path.read_text())


    def test_an_mspe_beyond_the_double_range_prints_as_null(self, tmp_path, capsys):
        path, cfg = write_sim_config(tmp_path)
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
        data = ["--edges", cfg["out_edges"], "--panel", cfg["out_panel"]]
        fit = str(tmp_path / "fit.json")
        assert run_cli(capsys, "fit", *data, "--model", "nar", "--out", fit)[0] == 0
        panel = read_panel_csv(cfg["out_panel"])
        panel.y[:, 10] *= 1e200  # finite cells whose squared forecast error overflows
        write_panel_csv(panel, cfg["out_panel"])
        code, stdout, _ = run_cli(capsys, "predict", "--fit", fit, *data, "--window-len", "10",
                                  "--out", str(tmp_path / "forecast.csv"))
        assert code == 0 and self.strict(stdout)["mspe"] is None


class TestConfigFiles:
    """simulate and mc read their --config through the one JSON loader: a
    top level that is not an object is a data error and an unreadable file
    an I/O error, and either writes nothing."""

    def run(self, tmp_path, capsys, command, text):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_bytes(text)
        outputs = {"simulate": [], "mc": ["--out", str(tmp_path / "r.csv"),
                                          "--summary-out", str(tmp_path / "s.csv")]}
        code, stdout, err = run_cli(capsys, command, "--config", str(config), *outputs[command])
        assert stdout == "" and sorted(tmp_path.iterdir()) == ([config] if text else [])
        return code, json.loads(err)

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("top", [5, None, "n", ["n"], [1, 2]])
    def test_top_level_that_is_not_an_object_is_a_data_error(
        self, tmp_path, capsys, command, top
    ):
        code, error = self.run(tmp_path, capsys, command, json.dumps(top).encode())
        assert code == 3 and error["error"] == "DataError"
        assert error["message"].endswith(f"the top level has type {type(top).__name__}, "
                                         "expected dict")

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    def test_unreadable_config_is_an_io_error(self, tmp_path, capsys, command):
        code, error = self.run(tmp_path, capsys, command, None)
        assert (code, error["error"]) == (3, "io")
        assert "config.json" in error["message"]

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("text", [
        b'{"n": 30,', b'{"n": "\xff"}', b'{"n": 1%s}' % (b"0" * 5000),
    ], ids=["cut", "not-utf8", "over-the-int-digit-limit"])
    def test_text_that_is_not_json_is_a_data_error(self, tmp_path, capsys, command, text):
        code, error = self.run(tmp_path, capsys, command, text)
        assert code == 3 and error["error"] == "DataError"
        assert error["message"].startswith(f"{tmp_path / 'config.json'}: invalid JSON")


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

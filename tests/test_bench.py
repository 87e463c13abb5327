import csv
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from enarkit import bench, blas, cli, estimate, network
from enarkit.bench import (
    RESULT_COLUMNS,
    Cell,
    ExperimentConfig,
    ReplicationResult,
    derive_seed,
    alternating_beta,
    results_to_csv,
    run_grid,
    run_replication,
    summarize,
    summary_to_csv,
)
from enarkit.errors import DataError, DimensionMismatch, EmptyGroup, NotStationary, ShapeMismatch
from oracles import connection_matrix_dense, write_results_csv_loop, write_summary_csv_loop


@pytest.fixture
def failing_draw(monkeypatch):
    """Every data draw raises NotStationary, as a draw that fails does."""
    def fail(cell, config, seed):
        raise NotStationary("|0.7| + |0.5| >= 1")

    monkeypatch.setattr(bench, "simulate_cell_data", fail)


def smoke_config(**overrides):
    base = dict(
        n_values=[20], t_values=[6], k_values=[2],
        generators=["dcmmsbm"], truth_models=["enar"], fit_models=["enar", "nar"],
        reps=2, base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_alternating_beta_rule(self):
        b = alternating_beta(4)
        assert np.allclose(b, [1.0, -0.5, 1 / 3, -0.25])

    def test_rejects_bad_q_block(self):
        with pytest.raises(DataError):
            smoke_config(q_block=0.4)

    def test_rejects_zero_reps(self):
        with pytest.raises(DataError):
            smoke_config(reps=0)

    @pytest.mark.parametrize("sizes, message", [
        ({"n_values": [12.9]}, "key 'n_values' element 0 has type float"),
        ({"t_values": [6, 4.5]}, "key 't_values' element 1 has type float"),
        ({"k_values": [True]}, "key 'k_values' element 0 has type bool"),
    ])
    def test_rejects_non_integer_sizes(self, sizes, message):
        with pytest.raises(DataError, match=message):
            smoke_config(**sizes)

    def test_rejects_non_integer_reps(self):
        with pytest.raises(DataError, match="key 'reps' has type bool"):
            smoke_config(reps=True)

    # one wrong JSON type per ExperimentConfig field, as a Python caller
    # passes it; the first seven used to raise TypeError or ValueError, or
    # were accepted
    WRONG_TYPES = [
        ("alpha", "0.2", "key 'alpha' has type str, expected int/float"),
        ("q_block", "0.2", "key 'q_block' has type str, expected int/float"),
        ("gamma", ["x", 1, 2], "key 'gamma' element 0 has type str"),
        ("rho", "0.3", "key 'rho' has type str, expected int/float"),
        ("sigma", True, "key 'sigma' has type bool, expected int/float"),
        ("beta", [True, 1.0], "key 'beta' element 0 has type bool"),
        ("oracle_latents", "yes", "key 'oracle_latents' has type str, expected bool"),
        ("n_values", 20, "key 'n_values' has type int, expected list"),
        ("t_values", [6.0], "key 't_values' element 0 has type float, expected int"),
        ("k_values", np.array([2.0]), "key 'k_values' element 0 has type float"),
        ("generators", ("dcmmsbm",), "key 'generators' has type tuple, expected list"),
        ("truth_models", [None], "key 'truth_models' element 0 has type NoneType"),
        ("fit_models", ["nar", 1], "key 'fit_models' element 1 has type int, expected str"),
        ("reps", 2.0, "key 'reps' has type float, expected int"),
        ("base_seed", None, "key 'base_seed' has type NoneType, expected int"),
        ("theta", np.array([0.2]), "key 'theta' has type list, expected int/float"),
        ("beta2", [1.0], "key 'beta2' has type list, expected int/float"),
        ("s", None, "key 's' has type NoneType, expected int/float"),
        ("cov_variances", np.ones((3, 1)), "key 'cov_variances' element 0 has type list"),
    ]

    @pytest.mark.parametrize("key, value, message", WRONG_TYPES,
                             ids=[key for key, _, _ in WRONG_TYPES])
    def test_rejects_a_wrong_type_in_each_field(self, key, value, message):
        with pytest.raises(DataError, match=re.escape(message)):
            smoke_config(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("sigma", float("nan"), "key 'sigma' is nan, not a finite number"),
        ("alpha", np.float64("inf"), "key 'alpha' is inf, not a finite number"),
        ("gamma", np.array([0.3, np.inf, 0.0]), "key 'gamma' element 1 is inf, not a finite"),
        ("beta", [1.0, -(10**400)], "key 'beta' element 1 is an integer beyond the double"),
    ])
    def test_rejects_a_number_that_is_not_finite(self, key, value, message):
        with pytest.raises(DataError, match=re.escape(message)):
            smoke_config(**{key: value})

    @pytest.mark.parametrize("params", [
        {"sigma": 1e200}, {"sigma": 10**200}, {"gamma": [1e200, 0.0, 0.0]},
        {"cov_variances": [1e300, 1.0, 1.0], "gamma": [1e10, 0.0, 0.0]},
        {"sigma": 1e200, "truth_models": ["amnar"]},
    ], ids=["sigma", "sigma-int", "gamma", "cov_variances", "sigma-amnar"])
    def test_rejects_an_innovation_variance_that_overflows(self, params):
        message = "not finite: lower 'sigma', 'gamma' or 'cov_variances'"
        with pytest.raises(DataError, match=re.escape(message)):
            smoke_config(**params)

    def test_wrong_types_cover_every_field(self):
        keys = [key for key, _, _ in self.WRONG_TYPES]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert list(bench.CONFIG_TYPES) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert bench.PARAM_TYPES.items() <= bench.CONFIG_TYPES.items()

    def test_numpy_arrays_of_numbers_pass_for_lists(self):
        cfg = smoke_config(
            n_values=np.array([20, 24]), beta=np.array([1.0, -0.5]),
            gamma=np.array([0.3, -0.1, 0.0]), cov_variances=np.array([3.0, 2.0, 1.0]),
            rho=np.float64(0.3), alpha=np.array(0.2),
        )
        assert len(cfg.cells()) == 4 and cfg.rho_for(20) == 0.3

    @pytest.mark.parametrize("params, message", [
        ({"cov_variances": [1.0, 2.0]}, "gamma has 3 entries but cov_variances has 2"),
        ({"gamma": [0.1, 0.2, 0.3, 0.4]}, "gamma has 4 entries but cov_variances has 3"),
    ])
    def test_rejects_gamma_and_cov_variances_of_unequal_length(self, params, message):
        with pytest.raises(DataError, match=message):
            smoke_config(**params)

    def test_amnar_truth_rho_checked_at_every_n(self):
        # the default rule N^{-1/2} lies in (0, 1) at N = 30 but is 1 at N = 1
        with pytest.raises(DataError, match=re.escape("got 1.0 at N = 1")):
            smoke_config(truth_models=["amnar"], n_values=[30, 1])

    def test_rho_range_binds_only_an_amnar_truth(self):
        cfg = smoke_config(truth_models=["nar"], fit_models=["nar"], n_values=[30, 1], rho=1.5)
        assert cfg.rho_for(1) == 1.5

    # every rule that does not depend on the seed, each broken on its own;
    # a row of such a config used to record the error as its status
    @pytest.mark.parametrize("params, error, message", [
        ({"sigma": -1.0}, DataError, "sigma must be nonnegative"),
        ({"sigma": -1.0, "truth_models": ["amnar"]}, DataError, "sigma must be nonnegative"),
        ({"alpha": 0.7, "theta": 0.5}, NotStationary, "|0.7| + |0.5| >= 1"),
        ({"cov_variances": [3.0, 0.0, 1.0]}, DataError, "strictly positive"),
        ({"s": 0.7, "truth_models": ["amnar"]}, DataError, "s = 0.7 must lie in (0, 1/2)"),
        ({"s": 0.7, "fit_models": ["amnar"]}, DataError, "amnar requires s in (0, 1/2)"),
        ({"rho": 1.5, "generators": ["rdpg"]}, DataError, "got 1.5 at N = 20"),
        ({"rho": -0.1, "truth_models": ["nar"]}, DataError, "got -0.1 at N = 20"),
        ({"beta": [1.0, -0.5], "k_values": [3]}, DimensionMismatch, "2 entries but K = 3"),
        ({"beta": [1.0], "truth_models": ["amnar"]}, DimensionMismatch, "1 entries but K = 2"),
        ({"k_values": [21]}, ShapeMismatch, "K = 21 exceeds N = 20"),
        ({"k_values": [21], "truth_models": ["nar"], "fit_models": ["amnar"]},
         ShapeMismatch, "K = 21 exceeds N = 20"),
        ({"n_values": [20, 0]}, DataError, "n_values must be positive"),
        ({"t_values": [-1]}, DataError, "t_values must be positive"),
        ({"k_values": [0]}, DataError, "k_values must be positive"),
        ({"generators": ["er"]}, DataError, "unknown generator 'er'"),
        ({"truth_models": ["enr"]}, DataError, "unknown truth model 'enr'"),
        ({"fit_models": ["ols"]}, DataError, "unknown fit model 'ols'"),
    ], ids=["sigma-enar", "sigma-amnar", "stationarity", "cov-variance", "s-amnar-truth",
            "s-amnar-fit", "rho-rdpg", "rho-negative", "beta-enar", "beta-amnar",
            "k-enar", "k-amnar-fit", "n-values", "t-values", "k-values", "generator",
            "truth-model", "fit-model"])
    def test_rejects_seed_independent_errors(self, params, error, message):
        with pytest.raises(error, match=re.escape(message)):
            smoke_config(**params)

    @pytest.mark.parametrize("params", [
        {"s": 0.7},  # an enar truth and nar and enar fits have no rate exponent
        {"beta": [1.0, -0.5], "k_values": [3], "truth_models": ["nar"]},  # beta unused
        {"rho": 1.5, "generators": ["dcsbm", "dcmmsbm"]},  # clipped, not invalid
        {"k_values": [21], "truth_models": ["nar", "amnar"], "fit_models": ["nar"]},
    ])
    def test_accepts_what_no_model_in_use_rejects(self, params):
        smoke_config(**params)

    def test_rho_rule(self):
        cfg = smoke_config()
        assert cfg.rho_for(100) == pytest.approx(0.1)
        assert smoke_config(rho=0.3).rho_for(100) == 0.3


class TestStageStreams:
    def test_stage_is_the_spawned_child(self):
        seed = derive_seed(7, Cell("dcmmsbm", "enar", "nar", 40, 40, 3), 0)
        children = np.random.SeedSequence(seed).spawn(len(bench.STAGES))
        for stage, child in zip(bench.STAGES, children):
            assert np.array_equal(bench.stage_rng(seed, stage).random(4),
                                  np.random.default_rng(child).random(4))

    @pytest.mark.parametrize("truth", ["nar", "enar", "amnar"])
    def test_momentum_moves_only_the_responses(self, truth):
        # a larger alpha lengthens the start series from J = 43 to 176 terms,
        # past N = 100, so the start moves from the series to the closed
        # form; every other stage draws from its own stream and stays put
        cell = Cell("dcmmsbm", truth, "nar", 100, 8, 2)
        low, high = (bench.simulate_cell_data(cell, smoke_config(alpha=a), 11)
                     for a in (0.2, 0.6))
        assert np.array_equal(low.graph.adjacency.toarray(), high.graph.adjacency.toarray())
        assert np.array_equal(low.panel.z, high.panel.z)
        assert np.array_equal(low.z_next, high.z_next)
        assert not np.array_equal(low.panel.y, high.panel.y)


class TestSeedDerivation:
    def test_deterministic(self):
        cell = Cell("dcmmsbm", "enar", "nar", 40, 40, 3)
        assert derive_seed(1, cell, 5) == derive_seed(1, cell, 5)

    def test_fit_model_excluded_from_data_seed(self):
        a = Cell("dcmmsbm", "enar", "nar", 40, 40, 3)
        b = Cell("dcmmsbm", "enar", "enar", 40, 40, 3)
        assert derive_seed(1, a, 0) == derive_seed(1, b, 0)

    def test_no_collisions_over_full_grid(self):
        seeds = set()
        count = 0
        for gen, truth, n, t, k, rep in itertools.product(
            ("dcsbm", "dcmmsbm"), ("nar", "enar", "amnar"),
            (40, 80, 160, 320), (2, 40, 160, 320), (3, 12), range(200),
        ):
            seeds.add(derive_seed(0, Cell(gen, truth, "enar", n, t, k), rep))
            count += 1
        assert len(seeds) == count

    def test_base_seed_changes_everything(self):
        cell = Cell("dcmmsbm", "enar", "enar", 40, 40, 3)
        assert derive_seed(0, cell, 0) != derive_seed(1, cell, 0)


class TestRunReplication:
    def test_deterministic_result(self):
        cfg = smoke_config()
        cell = cfg.cells()[0]
        r1 = run_replication(cell, 0, cfg)
        r2 = run_replication(cell, 0, cfg)
        assert r1.__dict__ | {"wall_ms": 0} == r2.__dict__ | {"wall_ms": 0}

    def test_oracle_mode_noiseless_exact(self):
        cfg = smoke_config(sigma=0.0, oracle_latents=True, reps=1,
                           n_values=[25], t_values=[8])
        cell = Cell("dcmmsbm", "enar", "enar", 25, 8, 2)
        res = run_replication(cell, 0, cfg)
        assert res.status == "ok"
        assert res.rmse_alpha < 1e-8
        assert res.rmse_theta < 1e-8
        assert res.rmse_beta < 1e-8
        assert res.rmsp < 1e-8

    def test_oracle_mode_amnar_noiseless_exact(self):
        cfg = smoke_config(sigma=0.0, oracle_latents=True, reps=1,
                           truth_models=["amnar"], fit_models=["amnar"],
                           n_values=[25], t_values=[8])
        res = run_replication(Cell("dcmmsbm", "amnar", "amnar", 25, 8, 2), 0, cfg)
        assert res.status == "ok"
        assert res.rmse_alpha < 1e-8 and res.rmse_theta < 1e-8
        assert res.rmse_beta < 1e-8 and res.rmsp < 1e-8

    def test_failure_recorded_not_raised(self, failing_draw):
        cfg = smoke_config()
        res = run_replication(cfg.cells()[0], 0, cfg)
        assert res.status == "NotStationary"
        assert math.isnan(res.alpha_hat)

    @pytest.mark.parametrize("truth, fit", [("enar", "enar"), ("enar", "nar"), ("amnar", "amnar")])
    def test_fits_make_no_pivoted_qr(self, qr_calls, truth, fit):
        # the benchmark's designs are well conditioned, so each least-squares
        # solve takes the Cholesky factor of W'W and never the slow QR path
        cfg = smoke_config(reps=1, truth_models=[truth], fit_models=[fit])
        res = run_replication(Cell("dcmmsbm", truth, fit, 100, 20, 3), 0, cfg)
        assert res.status == "ok"
        assert qr_calls == []

    def test_nar_fit_has_no_beta_metric(self):
        cfg = smoke_config()
        res = run_replication(Cell("dcmmsbm", "enar", "nar", 20, 6, 2), 0, cfg)
        assert res.status == "ok"
        assert math.isnan(res.rmse_beta)
        assert np.isfinite(res.theta_hat)


class TestRunGrid:
    def test_single_cell_single_rep(self):
        cfg = smoke_config(reps=1, fit_models=["nar"])
        rows = run_grid(cfg)
        assert len(rows) == 1

    def test_canonical_order_and_parallel_identity(self, tmp_path):
        cfg = smoke_config(reps=2, n_values=[15, 20], t_values=[4])
        serial = run_grid(cfg, parallelism=1)
        parallel = run_grid(cfg, parallelism=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        results_to_csv(serial, str(p1), timing=False)
        results_to_csv(parallel, str(p2), timing=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_identity_on_lanczos_path(self, tmp_path, lanczos_path):
        # workers are forked, so they inherit the patched eigensolver switch
        cfg = smoke_config(truth_models=["enar", "amnar"], fit_models=["enar", "amnar"],
                           n_values=[40], t_values=[6], reps=2)
        serial = run_grid(cfg, parallelism=1)
        assert "LM" in lanczos_path and "LA" in lanczos_path
        parallel = run_grid(cfg, parallelism=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        results_to_csv(serial, str(p1), timing=False)
        results_to_csv(parallel, str(p2), timing=False)
        assert all(r.status == "ok" for r in serial)
        assert p1.read_bytes() == p2.read_bytes()

    def test_results_csv_round_trip(self, tmp_path):
        cfg = smoke_config(reps=1)
        rows = run_grid(cfg)
        path = tmp_path / "res.csv"
        results_to_csv(rows, str(path))
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert list(a) == RESULT_COLUMNS
            assert int(a["seed"]) == b.seed
            assert float(a["alpha_hat"]) == pytest.approx(b.alpha_hat, nan_ok=True)

    def test_amnar_fit_cell_runs(self):
        cfg = smoke_config(truth_models=["amnar"], fit_models=["amnar", "nar"],
                           n_values=[25], t_values=[6], reps=1)
        rows = run_grid(cfg)
        assert all(r.status == "ok" for r in rows)


def csv_bytes(rows, path) -> bytes:
    results_to_csv(rows, str(path), timing=False)
    return path.read_bytes()


def lone_rows(cfg):
    """One stand-alone ``run_replication`` per row, each drawing its own data."""
    rows = [run_replication(cell, rep, cfg) for cell in cfg.cells() for rep in range(cfg.reps)]
    return sorted(rows, key=lambda r: (r.gen, r.truth, r.fit, r.n, r.t, r.k, r.rep))


class TestSharedDraw:
    """``run_grid`` draws each replication's data once for all its fits."""

    @pytest.mark.parametrize("oracle", [False, True])
    def test_grid_rows_match_lone_replications(self, tmp_path, oracle):
        cfg = smoke_config(truth_models=["enar", "amnar"], fit_models=["nar", "enar", "amnar"],
                           n_values=[20, 24], oracle_latents=oracle)
        grid = run_grid(cfg)
        assert len(grid) == 24 and all(r.status == "ok" for r in grid)
        lone = lone_rows(cfg)
        assert csv_bytes(grid, tmp_path / "grid.csv") == csv_bytes(lone, tmp_path / "lone.csv")

    def test_amnar_fits_of_one_draw_match_lone_replication(self, tmp_path):
        # the latent-space fit draws nothing, so two fits of one shared draw
        # and a replication that draws its own data give the same row
        cfg = smoke_config(truth_models=["amnar"], fit_models=["amnar", "amnar"], reps=1)
        first, second = run_grid(cfg)
        lone = run_replication(cfg.cells()[0], 0, cfg)
        assert first.status == "ok"
        a, b, c = (csv_bytes([row], tmp_path / f"{i}.csv")
                   for i, row in enumerate((first, second, lone)))
        assert a == b == c

    def test_one_simulation_per_draw(self, monkeypatch):
        calls = []
        simulate = bench.simulate_cell_data

        def counting(cell, config, rng):
            calls.append((cell.gen, cell.truth, cell.n, cell.t, cell.k))
            return simulate(cell, config, rng)

        monkeypatch.setattr(bench, "simulate_cell_data", counting)
        cfg = smoke_config(truth_models=["nar", "enar"], fit_models=["nar", "enar", "amnar"])
        rows = run_grid(cfg)
        assert len(rows) == 12
        assert sorted(calls) == sorted(
            [("dcmmsbm", truth, 20, 6, 2) for truth in ("nar", "enar")] * cfg.reps
        )

    def test_failed_draw_fails_every_row(self, failing_draw):
        cfg = smoke_config(fit_models=["nar", "enar", "amnar"])
        rows = run_grid(cfg)
        assert len(rows) == 6
        assert {r.status for r in rows} == {"NotStationary"}
        assert [r.status for r in rows] == [r.status for r in lone_rows(cfg)]
        assert all(math.isnan(r.alpha_hat) and r.wall_ms > 0 for r in rows)

    def test_jobs_one_and_two_give_the_same_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [20], "t_values": [6], "k_values": [2],
            "truth_models": ["enar", "amnar"], "fit_models": ["nar", "enar", "amnar"],
            "reps": 2, "base_seed": 3,
        }))
        outputs = []
        for jobs in ("1", "2"):
            out, summary = tmp_path / f"r{jobs}.csv", tmp_path / f"s{jobs}.csv"
            assert cli.main(["mc", "--config", str(cfg_path), "--out", str(out),
                             "--summary-out", str(summary), "--jobs", jobs, "--no-timing"]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_pool_bounded_by_the_number_of_draws(self, monkeypatch):
        started = []

        class RecordingPool:
            """Stands in for the process pool and runs its tasks in-process."""

            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        rows = run_grid(smoke_config(), parallelism=64)  # 2 draws, 4 rows
        assert started == [2] and len(rows) == 4
        run_grid(smoke_config(reps=1), parallelism=64)  # one draw runs in-process
        assert started == [2]


@pytest.fixture
def blas_at_two_threads():
    """Both bundled OpenBLAS pools at two threads, so that a restore to the
    count before a pin shows; the counts of the session are put back after."""
    controls = blas._thread_controls()
    if controls is None:
        pytest.skip("no bundled OpenBLAS with thread setters")
    before = [getter() for _, getter, _ in controls]
    for setter, _, _ in controls:
        setter(2)

    def counts():
        return [getter() for _, getter, _ in controls]

    assert counts() == [2, 2]
    yield counts
    for (setter, _, _), count in zip(controls, before):
        setter(count)


class TestBlasPin:
    """Every replication runs BLAS on one thread; the caller's counts return."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_tasks_run_on_one_thread(self, monkeypatch, blas_at_two_threads, jobs):
        draw = bench.simulate_cell_data

        def checked_draw(*args):
            # a worker's failure reaches the parent as the row status
            if blas_at_two_threads() != [1, 1]:
                raise RuntimeError("BLAS not pinned")
            return draw(*args)

        monkeypatch.setattr(bench, "simulate_cell_data", checked_draw)
        rows = run_grid(smoke_config(), parallelism=jobs)
        assert [r.status for r in rows] == ["ok"] * 4
        assert blas_at_two_threads() == [2, 2]

    @pytest.fixture
    def thread_stop(self):
        controls = blas._thread_controls()
        if controls is None or any(stop is None for _, _, stop in controls):
            pytest.skip("no bundled OpenBLAS with a thread shutdown")
        try:
            os.listdir("/proc/self/task")
        except OSError:
            pytest.skip("no /proc/self/task to count threads in")

    def test_every_worker_task_runs_one_os_thread(self, monkeypatch, thread_stop):
        draw = bench.simulate_cell_data

        def counted_draw(*args):
            # read in every task: each task's BLAS setter calls would start
            # a stopped pool's helpers again
            threads = len(os.listdir("/proc/self/task"))
            if threads != 1:
                raise RuntimeError(f"{threads} threads")
            return draw(*args)

        monkeypatch.setattr(bench, "simulate_cell_data", counted_draw)
        rows = run_grid(smoke_config(fit_models=["nar"], reps=6), parallelism=2)
        assert [r.status for r in rows] == ["ok"] * 6
        assert multiprocessing.active_children() == []

    def test_a_spawned_worker_runs_one_os_thread(self, thread_stop):
        # a spawned worker imports numpy and scipy afresh, and their helpers
        # run until pin_worker stops them; a forked one starts without them
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=context, initializer=blas.pin_worker) as pool:
            tasks = list(pool.map(os.listdir, ["/proc/self/task"] * 4))
        assert [len(t) for t in tasks] == [1] * 4

    def test_without_the_thread_stop_workers_only_pin(self, tmp_path, capsys, monkeypatch):
        controls = blas._thread_controls()
        if controls is None:
            pytest.skip("no bundled OpenBLAS with thread setters")
        monkeypatch.setattr(blas, "_thread_controls",
                            lambda: tuple((setter, getter, None) for setter, getter, _ in controls))
        cfg_path = tmp_path / "mc.json"
        cfg_path.write_text(json.dumps({
            "n_values": [20], "t_values": [6], "k_values": [2], "fit_models": ["nar", "enar"],
            "reps": 3, "base_seed": 8,
        }))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"r{jobs}.csv"
            assert cli.main(["mc", "--config", str(cfg_path), "--out", str(out),
                             "--summary-out", str(tmp_path / "s.csv"), "--jobs", jobs,
                             "--no-timing"]) == 0
            report = json.loads(capsys.readouterr().out)
            outputs.append((report["failures"], report["blas_threads"], out.read_bytes()))
        assert outputs[0][:2] == outputs[1][:2] == (0, 1)
        assert outputs[0][2] == outputs[1][2]

    def test_counts_restored_when_the_block_raises(self, blas_at_two_threads):
        with pytest.raises(ZeroDivisionError):
            with blas.one_thread():
                assert blas_at_two_threads() == [1, 1]
                1 / 0
        assert blas_at_two_threads() == [2, 2]

    @staticmethod
    def settled_threads() -> int:
        """This process's OS threads, read once any thread a pool joined is
        gone: a joined thread's OS thread outlives its join by a moment."""
        deadline = time.monotonic() + 2.0
        while (threads := len(os.listdir("/proc/self/task"))) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        return threads

    def test_the_parent_starts_no_helper_after_a_pool(self, blas_at_two_threads, thread_stop):
        # the fork handler stops the parent's helpers, and restoring the
        # counts on a stopped pool must not start them again
        for jobs in (2, 1):
            rows = run_grid(smoke_config(), parallelism=jobs)
            assert [r.status for r in rows] == ["ok"] * 4
            assert self.settled_threads() == 1
            assert blas_at_two_threads() == [2, 2]

    def test_a_later_split_starts_the_helpers(self, blas_at_two_threads, thread_stop):
        run_grid(smoke_config(), parallelism=2)
        assert self.settled_threads() == 1
        a = np.ones((400, 400))
        a @ a  # large enough for the restored two threads to split
        assert len(os.listdir("/proc/self/task")) > 1

    def test_a_fork_in_a_block_that_raises(self, blas_at_two_threads, thread_stop):
        with pytest.raises(ZeroDivisionError):
            with blas.one_thread():
                child = multiprocessing.get_context("fork").Process(target=os.getpid)
                child.start()
                child.join()
                1 / 0
        assert blas_at_two_threads() == [2, 2]
        assert self.settled_threads() == 1


class TestEnarDraw:
    @pytest.mark.parametrize("gen", ["dcsbm", "dcmmsbm", "rdpg"])
    def test_holds_no_dense_connection_matrix(self, gen):
        # the N x N float P alone would take N^2 * 8 bytes (72 MB here)
        n = 3000
        cell = Cell(gen, "enar", "enar", n, 2, 3)
        tracemalloc.start()
        try:
            bench.simulate_cell_data(cell, ExperimentConfig([n], [2], [3]), 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("gen", ["dcsbm", "dcmmsbm"])
    def test_one_clipping_warning_per_draw_with_the_reference_count(self, gen):
        cell = Cell(gen, "enar", "enar", 600, 4, 3)
        config = ExperimentConfig([600], [4], [3])
        for seed in range(3):
            spec = bench._make_generator_spec(cell, config, bench.stage_rng(seed, "latents"))
            with warnings.catch_warnings(record=True) as ref:
                warnings.simplefilter("always")
                connection_matrix_dense(spec)
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                bench.simulate_cell_data(cell, config, seed)
            clip = [str(w.message) for w in got if "were clipped" in str(w.message)]
            assert len(ref) == 1 and clip == [str(ref[0].message)]


class TestConsistencyTrends:
    def test_theta_error_shrinks_on_either_axis(self):
        # quadrupling N at fixed T, or T at fixed N, both shrink the root mean
        # square error: about 0.045, 0.036, 0.031 and 0.024 for the four
        # cells over 4,000 replications each. Resampled from those, the four
        # comparisons hold with probability 0.99 for root mean square errors
        # of 100 replications, and 0.41 for medians of 20 absolute errors
        cfg = smoke_config(reps=100, rho=0.1)
        rmse = {}
        for n, t in ((40, 40), (160, 40), (40, 160), (160, 160)):
            errs = []
            for rep in range(cfg.reps):
                r = run_replication(Cell("dcmmsbm", "enar", "enar", n, t, 3), rep, cfg)
                if r.status == "ok":
                    errs.append(r.theta_hat - 0.2)
            rmse[(n, t)] = np.sqrt(np.mean(np.square(errs)))
        assert rmse[(160, 40)] < rmse[(40, 40)]
        assert rmse[(40, 160)] < rmse[(40, 40)]
        assert rmse[(160, 160)] < rmse[(160, 40)]
        assert rmse[(160, 160)] < rmse[(40, 160)]

    def test_amnar_momentum_and_peer_consistency(self):
        # planted latent-space truth, constrained-MLE pipeline end to end
        cfg = smoke_config(truth_models=["amnar"], fit_models=["amnar"], reps=30)
        errs_a, errs_t = [], []
        for rep in range(30):
            r = run_replication(Cell("dcmmsbm", "amnar", "amnar", 160, 160, 3), rep, cfg)
            assert r.status == "ok"
            errs_a.append(abs(r.alpha_hat - 0.2))
            errs_t.append(abs(r.theta_hat - 0.2))
        assert np.median(errs_a) < 0.03
        assert np.median(errs_t) < 0.03


class TestSummarize:
    def test_single_row_group(self):
        cfg = smoke_config(reps=1, fit_models=["nar"])
        rows = run_grid(cfg)
        summary = summarize(rows, ["fit"])
        by_metric = {r["metric"]: r for r in summary}
        theta = by_metric["theta_hat"]
        assert theta["median"] == theta["mean"] == rows[0].theta_hat
        assert theta["sd"] == 0.0

    def test_constant_column_zero_iqr(self):
        cfg = smoke_config(reps=3, fit_models=["nar"])
        rows = run_grid(cfg)
        for r in rows:
            r.sigma2_hat = 1.0
        summary = summarize(rows, ["fit"])
        row = next(r for r in summary if r["metric"] == "sigma2_hat")
        assert row["q3"] - row["q1"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyGroup):
            summarize([], ["fit"])

    def test_failure_rate_reported(self, failing_draw):
        cfg = smoke_config(reps=2, fit_models=["nar"])
        rows = run_grid(cfg)
        summary = summarize(rows, ["fit"])
        frow = next(r for r in summary if r["metric"] == "failure_rate")
        assert frow["mean"] == 1.0

    def test_group_field_names(self):
        rows = run_grid(smoke_config(reps=1, fit_models=["nar"]))
        summary = summarize(rows, ["N"])
        assert {r["N"] for r in summary} == {20}
        with pytest.raises(DataError):
            summarize(rows, ["bogus"])

    def test_summary_csv_written(self, tmp_path):
        cfg = smoke_config(reps=2, fit_models=["nar", "enar"])
        rows = run_grid(cfg)
        summary = summarize(rows, ["fit", "N"])
        path = tmp_path / "summary.csv"
        summary_to_csv(summary, ["fit", "N"], str(path))
        header = path.read_text().splitlines()[0]
        assert header == "fit,N,metric,count,mean,sd,median,q1,q3"


def mixed_results():
    """Two ok rows and two failed ones, with NaN, infinite and extreme
    metrics and a timing column."""
    rows = [
        ReplicationResult("dcmmsbm", "enar", "enar", 40, 20, 2, rep, 1000 + rep)
        for rep in range(4)
    ]
    rows[0].alpha_hat, rows[0].theta_hat, rows[0].rmsp = 0.1 + 0.2, -0.0, 5e-324
    rows[0].aic, rows[0].bic, rows[0].wall_ms = 1e300, -math.inf, 12.345678901234567
    rows[1].alpha_hat, rows[1].sigma2_hat, rows[1].wall_ms = 1 / 3, 2.5e-7, 0.5
    rows[2].status, rows[2].wall_ms = "RankDeficient", 3.0
    rows[3].status = "IsolationRetriesExceeded"
    return rows


class TestCsvWriters:
    """The shared table writer against ``csv.writer`` loops."""

    def test_results_bytes_match_csv_writer(self, tmp_path):
        rows = mixed_results()
        rows[0].seed = 2**64 - 1
        rows[2].status = "S" * 300
        assert math.isnan(rows[2].alpha_hat)  # failed rows keep NaN metrics
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        results_to_csv(rows, str(fast))
        write_results_csv_loop(rows, RESULT_COLUMNS, str(ref))
        data = fast.read_bytes()
        assert data == ref.read_bytes()
        # full 64-bit seeds, long statuses and subnormals are written whole
        assert b",18446744073709551615," in data
        assert b"," + b"S" * 300 + b"," in data
        assert b",5e-324," in data
        with open(fast, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [r["status"] for r in back] == [r.status for r in rows]
        assert float(back[0]["wall_ms"]) == rows[0].wall_ms

    def test_results_without_timing_zero_the_wall_column(self, tmp_path):
        rows = mixed_results()
        path = tmp_path / "results.csv"
        results_to_csv(rows, str(path), timing=False)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and all(line.endswith(b",0.0") for line in lines[1:-1])

    def test_numpy_floats_written_as_plain_numbers(self, tmp_path):
        rows = mixed_results()
        rows[1].alpha_hat = np.float64(rows[1].alpha_hat)
        path = tmp_path / "results.csv"
        results_to_csv(rows, str(path))
        data = path.read_bytes()
        assert b"np.float64" not in data
        assert b",0.3333333333333333," in data.split(b"\r\n")[2]

    def test_summary_bytes_match_csv_writer(self, tmp_path):
        summary = summarize(mixed_results(), ["fit", "N", "rep"])
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        summary_to_csv(summary, ["fit", "N", "rep"], str(fast))
        write_summary_csv_loop(summary, ["fit", "N", "rep"], str(ref))
        assert fast.read_bytes() == ref.read_bytes()

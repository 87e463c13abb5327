import itertools
import json
import math

import numpy as np
import pytest

from enarkit import bench, blas, cli, estimate
from enarkit.bench import (
    RESULT_COLUMNS,
    Cell,
    ExperimentConfig,
    ReplicationResult,
    derive_seed,
    alternating_beta,
    read_results_csv,
    results_to_csv,
    run_grid,
    run_replication,
    summarize,
    summary_to_csv,
)
from enarkit.errors import DataError, EmptyGroup
from oracles import write_results_csv_loop, write_summary_csv_loop


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

    def test_rejects_negative_lsm_max_iters(self):
        with pytest.raises(DataError):
            smoke_config(lsm_max_iters=-1)

    @pytest.mark.parametrize("sizes, message", [
        ({"n_values": [12.9]}, "n_values element 0 has type float"),
        ({"t_values": [6, 4.5]}, "t_values element 1 has type float"),
        ({"k_values": [True]}, "k_values element 0 has type bool"),
    ])
    def test_rejects_non_integer_sizes(self, sizes, message):
        with pytest.raises(DataError, match=message):
            smoke_config(**sizes)

    @pytest.mark.parametrize("counts, message", [
        ({"reps": True}, "reps has type bool"),
        ({"lsm_max_iters": 2.5}, "lsm_max_iters has type float"),
    ])
    def test_rejects_non_integer_counts(self, counts, message):
        with pytest.raises(DataError, match=message):
            smoke_config(**counts)

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

    def test_failure_recorded_not_raised(self):
        cfg = smoke_config(alpha=0.7, theta=0.5)  # not stationary
        res = run_replication(cfg.cells()[0], 0, cfg)
        assert res.status == "NotStationary"
        assert math.isnan(res.alpha_hat)

    @pytest.mark.parametrize("truth, fit", [("enar", "enar"), ("enar", "nar"), ("amnar", "amnar")])
    def test_fits_make_no_pivoted_qr(self, qr_calls, truth, fit):
        # the benchmark's designs are well conditioned, so each least-squares
        # solve takes the Cholesky factor of W'W and never the slow QR path
        cfg = smoke_config(reps=1, truth_models=[truth], fit_models=[fit], lsm_max_iters=5)
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
                           n_values=[40], t_values=[6], reps=2,
                           lsm_max_iters=20)
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
        back = read_results_csv(str(path))
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert a.seed == b.seed
            assert a.alpha_hat == pytest.approx(b.alpha_hat, nan_ok=True)

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
                           n_values=[20, 24], oracle_latents=oracle,
                           lsm_max_iters=20)
        grid = run_grid(cfg)
        assert len(grid) == 24 and all(r.status == "ok" for r in grid)
        lone = lone_rows(cfg)
        assert csv_bytes(grid, tmp_path / "grid.csv") == csv_bytes(lone, tmp_path / "lone.csv")

    def test_each_fit_gets_its_own_generator_copy(self, monkeypatch, tmp_path):
        # the latent-MLE start draws from the generator only for a weak
        # spectrum, so this fit draws first to make each fit's stream visible
        first_draws = []
        fit_amnar = estimate.fit_amnar

        def drawing_fit_amnar(*args, **kwargs):
            first_draws.append(args[4].standard_normal())
            return fit_amnar(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit_amnar", drawing_fit_amnar)
        cfg = smoke_config(truth_models=["amnar"], fit_models=["amnar", "amnar"], reps=1,
                           lsm_max_iters=20)
        first, second = run_grid(cfg)
        run_replication(cfg.cells()[0], 0, cfg)
        assert len(first_draws) == 3 and len(set(first_draws)) == 1
        assert csv_bytes([first], tmp_path / "a.csv") == csv_bytes([second], tmp_path / "b.csv")

    def test_one_simulation_per_draw(self, monkeypatch):
        calls = []
        simulate = bench.simulate_cell_data

        def counting(cell, config, rng):
            calls.append((cell.gen, cell.truth, cell.n, cell.t, cell.k))
            return simulate(cell, config, rng)

        monkeypatch.setattr(bench, "simulate_cell_data", counting)
        cfg = smoke_config(truth_models=["nar", "enar"], fit_models=["nar", "enar", "amnar"],
                           lsm_max_iters=5)
        rows = run_grid(cfg)
        assert len(rows) == 12
        assert sorted(calls) == sorted(
            [("dcmmsbm", truth, 20, 6, 2) for truth in ("nar", "enar")] * cfg.reps
        )

    def test_failed_draw_fails_every_row(self):
        cfg = smoke_config(alpha=0.7, theta=0.5, fit_models=["nar", "enar", "amnar"])
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
            "reps": 2, "base_seed": 3, "lsm_max_iters": 20,
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
    before = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(2)

    def counts():
        return [getter() for _, getter in controls]

    assert counts() == [2, 2]
    yield counts
    for (setter, _), count in zip(controls, before):
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

    def test_counts_restored_when_the_block_raises(self, blas_at_two_threads):
        with pytest.raises(ZeroDivisionError):
            with blas.one_thread():
                assert blas_at_two_threads() == [1, 1]
                1 / 0
        assert blas_at_two_threads() == [2, 2]


class TestHollowRowSums:
    @pytest.mark.parametrize("gen", ["dcsbm", "dcmmsbm"])
    def test_match_the_dense_row_sums(self, gen):
        cell = Cell(gen, "enar", "enar", 300, 10, 3)
        spec = bench._make_generator_spec(cell, smoke_config(), np.random.default_rng(4))
        m, theta = spec.membership_matrix(), spec.degrees
        dense = np.outer(theta, theta) * (m @ spec.block_matrix @ m.T)
        np.fill_diagonal(dense, 0.0)
        expected = dense.sum(axis=1)
        got = bench._hollow_row_sums(theta, m, spec.block_matrix)
        assert np.max(np.abs(got - expected) / expected) < 1e-12


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

    def test_failure_rate_reported(self):
        cfg = smoke_config(alpha=0.7, theta=0.5, reps=2, fit_models=["nar"])
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
        assert math.isnan(rows[2].alpha_hat)  # failed rows keep NaN metrics
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        results_to_csv(rows, str(fast))
        write_results_csv_loop(rows, RESULT_COLUMNS, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
        back = read_results_csv(str(fast))
        assert [r.status for r in back] == [r.status for r in rows]
        assert back[0].rmsp == 5e-324 and back[0].wall_ms == rows[0].wall_ms

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
        assert b"np.float64" not in path.read_bytes()
        assert read_results_csv(str(path))[1].alpha_hat == 1 / 3

    def test_summary_bytes_match_csv_writer(self, tmp_path):
        summary = summarize(mixed_results(), ["fit", "N", "rep"])
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        summary_to_csv(summary, ["fit", "N", "rep"], str(fast))
        write_summary_csv_loop(summary, ["fit", "N", "rep"], str(ref))
        assert fast.read_bytes() == ref.read_bytes()


class TestResultsReader:
    """``read_results_csv`` parses whole columns; each bad row is a typed
    error that names it."""

    def write(self, tmp_path, rows):
        path = tmp_path / "results.csv"
        results_to_csv(rows, str(path))
        return path

    def test_round_trip_keeps_seeds_and_statuses_whole(self, tmp_path):
        rows = mixed_results()
        rows[0].seed = 2**64 - 1
        rows[2].status = "S" * 300
        back = read_results_csv(str(self.write(tmp_path, rows)))
        assert back[0].seed == 2**64 - 1 and isinstance(back[0].seed, int)
        assert back[2].status == "S" * 300
        assert csv_bytes(back, tmp_path / "a.csv") == csv_bytes(rows, tmp_path / "b.csv")

    def test_header_only_reads_no_rows(self, tmp_path):
        assert read_results_csv(str(self.write(tmp_path, []))) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("gen,truth\n")
        with pytest.raises(DataError, match="unexpected results header"):
            read_results_csv(str(path))

    @pytest.mark.parametrize("mangle", [
        lambda fields: fields[:-1],                          # short row
        lambda fields: fields[:8] + ["0.x"] + fields[9:],    # float
        lambda fields: fields[:3] + ["4o"] + fields[4:],     # int
        lambda fields: fields[:7] + ["-1"] + fields[8:],     # seed
    ])
    def test_malformed_row_names_its_row(self, tmp_path, mangle):
        path = self.write(tmp_path, mixed_results())
        lines = path.read_text().splitlines()
        lines[3] = ",".join(mangle(lines[3].split(",")))
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(DataError, match=r"results\.csv: row 5: cannot parse"):
            read_results_csv(str(path))

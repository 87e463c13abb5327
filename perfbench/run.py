#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of enarkit.

Run from the repository root:

    python3 perfbench/run.py --workload mc-enar-n1000 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client process drives the program in a closed loop, one request at a
time, through public entry points only: ``enarkit.cli.main(argv)`` called
in-process. A request is one ``mc`` call of fixed size, or one
``simulate -> fit -> predict`` round trip. Every request's outputs are
checked. The workload seed reaches the program only as the ``mc``
``base_seed`` or the ``simulate`` ``seed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced requests on identical inputs and reports per-layer
metrics from spans recorded by ``spans.py``. Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import ROW_SPAN, Trace, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4  # fresh interpreters timed for setup_s, besides this one


@dataclass(frozen=True)
class Size:
    """Problem size of one request, with the output bounds checked at it.

    ``rmse_max`` maps (truth, fit, metric) to the largest allowed median of
    that relative error over the run; ``coef_tol`` is the largest allowed
    absolute error of the CLI fit's alpha and theta.
    """

    n: int
    t: int
    window_len: int = 0
    rmse_max: dict = field(default_factory=dict)
    coef_tol: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" or "cli"
    full: Size
    toy: Size
    generators: tuple = ("dcmmsbm",)
    truths: tuple = ("enar",)
    fits: tuple = ("enar",)
    jobs: int = 1
    no_timing: bool = True


K = 3

WORKLOADS = {w.name: w for w in (
    # Dense O(N^3) kernels dominate: stationary moments and three eigensolves
    # per enar-fit row. Two fits per data draw.
    Workload(
        "mc-enar-n1000", "mc", fits=("enar", "nar"),
        full=Size(1000, 100, rmse_max={
            ("enar", "enar", "rmse_alpha"): 0.02, ("enar", "enar", "rmse_theta"): 0.2,
            ("enar", "enar", "rmse_beta"): 0.6,
            ("enar", "nar", "rmse_alpha"): 0.05, ("enar", "nar", "rmse_theta"): 0.8,
        }),
        toy=Size(60, 20),
    ),
    # The latent-space MLE takes most of each row.
    Workload(
        "mc-amnar-n320", "mc", truths=("amnar",), fits=("amnar",), no_timing=False,
        full=Size(320, 100, rmse_max={
            ("amnar", "amnar", "rmse_alpha"): 0.04, ("amnar", "amnar", "rmse_theta"): 0.12,
            ("amnar", "amnar", "rmse_beta"): 0.9,
        }),
        toy=Size(40, 20),
    ),
    # Per-call overhead, small allocations and pool dispatch dominate; the
    # only workload that uses the process pool.
    Workload(
        "mc-grid-n100-jobs2", "mc", generators=("dcsbm", "dcmmsbm", "rdpg"),
        truths=("nar", "enar"), fits=("nar", "enar"), jobs=2,
        full=Size(100, 100, rmse_max={
            ("enar", "enar", "rmse_alpha"): 0.1, ("enar", "enar", "rmse_theta"): 0.3,
            ("enar", "enar", "rmse_beta"): 0.7,
            ("enar", "nar", "rmse_alpha"): 0.3, ("enar", "nar", "rmse_theta"): 1.5,
            ("nar", "enar", "rmse_alpha"): 0.06, ("nar", "enar", "rmse_theta"): 0.2,
            ("nar", "nar", "rmse_alpha"): 0.06, ("nar", "nar", "rmse_theta"): 0.2,
        }),
        toy=Size(40, 20),
    ),
    # The only workload with file I/O; N is above the dense eigensolver limit.
    Workload(
        "cli-n1200", "cli",
        full=Size(1200, 100, window_len=80, coef_tol=0.05),
        toy=Size(60, 20, window_len=10, coef_tol=0.2),
    ),
)}


# ---------------------------------------------------------------- requests


@dataclass
class Request:
    """Outcome of one request, as the client sees it."""

    wall_s: float
    attempted: int
    failed: int
    out_rows: int  # ok result rows (mc) or forecast rows (cli)
    cpu_s: float
    command_s: dict = field(default_factory=dict)
    clipped_probs: int = 0
    step_failed: int = 0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call_cli(argv: list[str]) -> tuple[int, float]:
    """Run one CLI command in-process, output captured; returns (exit code,
    seconds)."""
    from enarkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"enarkit {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, seconds


def _count_warnings(caught, req: Request) -> None:
    for w in caught:
        text = str(w.message)
        if "connection probabilities exceeded 1" in text:
            req.clipped_probs += int(text.split()[0])
        elif "line search found no ascent direction" in text:
            req.step_failed += 1


class Client:
    """Issues requests of one workload and checks every output."""

    def __init__(self, workload: Workload, size: Size, seed: int, workdir: Path):
        self.w, self.size, self.seed, self.dir = workload, size, seed, workdir
        self.problems: list[str] = []
        self.rmse: dict[tuple, list[float]] = defaultdict(list)
        self.first_hashes: dict[str, str] = {}
        self.repeat_mismatch = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # --- mc

    def mc(self, index: int, jobs: int, tag: str = "") -> tuple[Request, bytes]:
        """One ``mc`` call; returns the request and the results CSV bytes."""
        w, size = self.w, self.size
        cfg = self.dir / "mc.json"
        cfg.write_text(json.dumps({
            "n_values": [size.n], "t_values": [size.t], "k_values": [K],
            "generators": list(w.generators), "truth_models": list(w.truths),
            "fit_models": list(w.fits), "reps": 1,
            "base_seed": self.seed * 1_000_003 + index,
        }))
        out = self.dir / f"results{tag}.csv"
        argv = ["mc", "--config", str(cfg), "--out", str(out),
                "--summary-out", str(self.dir / f"summary{tag}.csv"), "--jobs", str(jobs)]
        if w.no_timing:
            argv.append("--no-timing")
        cpu0 = _cpu_seconds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, seconds = _call_cli(argv)
        cpu = _cpu_seconds() - cpu0
        expected = len(w.generators) * len(w.truths) * len(w.fits)
        self.check(code == 0, f"mc exited {code}")
        if code != 0:
            return Request(seconds, expected, expected, 0, cpu), b""
        data = out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        self.check(len(rows) == expected, f"mc wrote {len(rows)} rows, expected {expected}")
        failed = 0
        for row in rows:
            if row["status"] != "ok":
                failed += 1
                self.problems.append(f"mc row {row['gen']}/{row['truth']}/{row['fit']} "
                                     f"rep {row['rep']}: status {row['status']}")
                continue
            for metric in ("rmse_alpha", "rmse_theta", "rmse_beta"):
                value = float(row[metric])
                if not math.isnan(value):
                    self.rmse[(row["truth"], row["fit"], metric)].append(value)
        req = Request(seconds, len(rows), failed, len(rows) - failed, cpu)
        _count_warnings(caught, req)
        return req, data

    def check_rmse(self) -> list[str]:
        """Median relative errors against the workload's bounds."""
        lines = []
        for key, values in sorted(self.rmse.items()):
            median = statistics.median(values)
            bound = self.size.rmse_max.get(key)
            lines.append(f"{'/'.join(key)}: median {median:.4g} over {len(values)} rows"
                         + (f" (bound {bound})" if bound is not None else ""))
            if bound is not None:
                self.check(median <= bound, f"median {'/'.join(key)} {median:.4g} > {bound}")
        for key in self.size.rmse_max:
            self.check(key in self.rmse, f"no rows scored for {'/'.join(key)}")
        return lines

    # --- cli round trip

    def round_trip(self) -> Request:
        """simulate -> fit -> predict on the workload seed; every round trip
        of a run has identical inputs."""
        size, d = self.size, self.dir
        files = {name: str(d / name) for name in
                 ("edges.csv", "panel.csv", "truth.json", "fit.json", "forecast.csv")}
        cfg = d / "sim.json"
        cfg.write_text(json.dumps({
            "model": "enar", "generator": "dcmmsbm", "n": size.n, "t": size.t, "k": K,
            "seed": self.seed, "out_edges": files["edges.csv"],
            "out_panel": files["panel.csv"], "out_truth": files["truth.json"],
        }))
        commands = (
            ("simulate", ["simulate", "--config", str(cfg)],
             ("edges.csv", "panel.csv", "truth.json")),
            ("fit", ["fit", "--edges", files["edges.csv"], "--panel", files["panel.csv"],
                     "--model", "enar", "--k", str(K), "--out", files["fit.json"]],
             ("fit.json",)),
            ("predict", ["predict", "--fit", files["fit.json"], "--edges", files["edges.csv"],
                         "--panel", files["panel.csv"], "--window-len", str(size.window_len),
                         "--out", files["forecast.csv"]],
             ("forecast.csv",)),
        )
        req = Request(0.0, 0, 0, 0, 0.0)
        cpu0 = _cpu_seconds()
        for name, argv, outputs in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, seconds = _call_cli(argv)
            _count_warnings(caught, req)
            req.command_s[name] = seconds
            req.wall_s += seconds
            req.attempted += 1
            if code != 0:
                req.failed += 1
                self.problems.append(f"{name} exited {code}")
                break
            digest = hashlib.sha256(b"".join(Path(files[f]).read_bytes() for f in outputs))
            first = self.first_hashes.setdefault(name, digest.hexdigest())
            self.repeat_mismatch += first != digest.hexdigest()
        req.cpu_s = _cpu_seconds() - cpu0
        if req.failed:
            return req

        truth = json.loads(Path(files["truth.json"]).read_text())
        fit = json.loads(Path(files["fit.json"]).read_text())
        for j, coef in enumerate(("alpha", "theta")):
            error = abs(fit["mu_hat"][coef] - truth["mu_true"][K + j])
            self.check(error <= size.coef_tol, f"fit {coef} off by {error:.4g} > {size.coef_tol}")
        with open(files["forecast.csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check(len(rows) == size.n, f"forecast has {len(rows)} rows, expected {size.n}")
        mspe = statistics.fmean(
            (float(r["y_hat"]) - float(r["y_actual"])) ** 2 for r in rows) if rows else math.nan
        self.check(math.isfinite(mspe), f"forecast MSPE is {mspe}")
        req.out_rows = len(rows)
        return req


# ---------------------------------------------------------------- loops


def _closed_loop(seconds: float, step, min_steps: int = 1) -> None:
    """Call ``step(i)`` until the next call is expected to end after
    ``seconds``, judged by the median step so far."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool
    workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(w: Workload, client: Client, seconds: float) -> tuple[dict, list[str], int, int]:
    """Untraced run: end-to-end metrics."""
    timed: list[Request] = []
    checks: list[Request] = []  # untimed requests made only to check outputs
    lines = []
    if w.kind == "mc":
        def step(i):
            req, data = client.mc(i, w.jobs)
            timed.append(req)
            if i == 0 and w.jobs > 1:
                serial, serial_data = client.mc(i, 1, tag="-jobs1")
                checks.append(serial)
                client.check(serial_data == data,
                             f"jobs-{w.jobs} results CSV differs from the jobs-1 CSV")
        _closed_loop(seconds, step)
        rates = [r.out_rows / r.wall_s for r in timed]
        lines.append(f"rows_per_s = {statistics.median(rates):.4g} rows/s "
                     f"(median of {len(rates)} mc calls, {sum(r.out_rows for r in timed)} rows; "
                     f"range {min(rates):.4g}-{max(rates):.4g})")
    else:
        _closed_loop(seconds, lambda i: timed.append(client.round_trip()), min_steps=2)
        whole = [r for r in timed if not r.failed]
        rates = [r.out_rows / r.wall_s for r in whole] or [0.0]
        lines.append(f"rows_per_s = {statistics.median(rates):.4g} rows/s "
                     f"(median of {len(whole)} round trips, forecast rows; "
                     f"range {min(rates):.4g}-{max(rates):.4g})")
        for name in ("simulate", "fit", "predict"):
            values = [r.command_s[name] for r in whole]
            if values:
                lines.append(f"cli_{name}_s = {statistics.median(values):.4g} s "
                             f"(median of {len(values)} calls)")
        lines.append(f"cli.repeat_mismatch = {client.repeat_mismatch} "
                     f"(commands whose outputs differ from the first round trip)")
    attempted = sum(r.attempted for r in timed + checks)
    failed = sum(r.failed for r in timed + checks)
    metrics = {
        "rows_per_s": (statistics.median(rates), "rows/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "fraction"),
    }
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB (process + largest child)")
    lines.append(f"ok_frac = {metrics['ok_frac'][0]:.4g} fraction ({attempted} attempted)")
    return metrics, lines, attempted, failed


def measure_traced(w: Workload, client: Client, seconds: float) -> tuple[dict, list[str], int, int]:
    """Traced run: untraced and traced requests alternate on identical inputs."""
    trace = Trace()
    untraced: list[Request] = []
    traced: list[Request] = []
    pool: list[Request] = []  # untraced jobs > 1 requests, for the CPU metrics

    def step(i):
        pool_data = None
        if w.kind == "mc" and w.jobs > 1:
            req, pool_data = client.mc(i, w.jobs, tag="-pool")
            pool.append(req)

        def request():
            if w.kind == "cli":
                return client.round_trip()
            req, data = client.mc(i, 1)
            if pool_data is not None:
                client.check(data == pool_data,
                             f"jobs-{w.jobs} results CSV differs from the jobs-1 CSV")
            return req

        # alternate which side goes first, so neither always runs warmer
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                with Tracer(trace):
                    traced.append(request())
                trace.flush_graphs()
            else:
                untraced.append(request())

    _closed_loop(seconds, step)
    cpu_reqs = pool or untraced
    units = sum(r.out_rows for r in traced) if w.kind == "mc" else len(traced)
    metrics, lines = layer_metrics(trace, max(units, 1), traced, untraced, cpu_reqs,
                                   "row" if w.kind == "mc" else "round trip")
    metrics["cli.repeat_mismatch"] = (client.repeat_mismatch, "count")
    attempted = sum(r.attempted for r in untraced + traced + pool)
    failed = sum(r.failed for r in untraced + traced + pool)
    return metrics, lines, attempted, failed


def layer_metrics(trace: Trace, units: int, traced, untraced, cpu_reqs, unit_name: str):
    """Per-layer metrics per row (mc) or per round trip (cli)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s in trace.spans:
        total[s.name] += s.seconds
        own[s.name] += s.self_seconds
        calls[s.name] += 1
    vals = trace.values

    lines = [f"per-layer figures are per {unit_name}, over {units} traced {unit_name}s "
             f"({len(traced)} traced requests)",
             f"{'span':34} {'calls':>8} {'total_ms':>11} {'self_ms':>11}"]
    for name in sorted(total, key=lambda n: -own[n]):
        lines.append(f"{name:34} {calls[name] / units:8.3g} "
                     f"{1000 * total[name] / units:11.2f} {1000 * own[name] / units:11.2f}")
    by_fit: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s in trace.spans:
        if s.name == ROW_SPAN:
            by_fit[s.tag][1] += 1
        elif s.name == "network.embed_symmetric" and s.row is not None:
            by_fit[trace.spans[s.row].tag][0] += 1
    for fit, (eigs, rows) in sorted(by_fit.items()):
        lines.append(f"eigensolves per {fit}-fit row: {eigs / rows:.3g} ({rows} rows)")

    def ms(name):
        return (1000.0 * total[name] / units, "ms")

    def self_ms(*names):
        return (1000.0 * sum(own[n] for n in names) / units, "ms")

    def per_unit(name):
        return (calls[name] / units, "count")

    def mean(key, unit="count"):
        return (statistics.fmean(vals[key]) if vals[key] else 0.0, unit)

    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    cpu_s = sum(r.cpu_s for r in cpu_reqs)
    cpu_wall = sum(r.wall_s for r in cpu_reqs)
    cpu_rows = sum(r.out_rows for r in cpu_reqs) if unit_name == "row" else len(cpu_reqs)
    nproc = len(os.sched_getaffinity(0))
    m = {
        "network.embed_symmetric_ms": ms("network.embed_symmetric"),
        "network.eig_calls": per_unit("network.embed_symmetric"),
        "network.connection_matrix_ms": ms("network.connection_matrix"),
        "network.normalized_laplacian_ms": ms("network.normalized_laplacian"),
        "network.laplacian_calls": per_unit("network.normalized_laplacian"),
        "network.read_edge_csv_ms": ms("network.read_edge_csv"),
        "network.write_edge_csv_ms": ms("network.write_edge_csv"),
        "network.edges": mean("edges"),
        "network.isolated_nodes": mean("isolated_nodes"),
        "network.clipped_probs": (sum(r.clipped_probs for r in traced) / units, "count"),
        "process.stationary_moments_ms": ms("process.stationary_moments"),
        "process.stationary_calls": per_unit("process.stationary_moments"),
        "process.lyapunov_iters": mean("lyapunov_iters"),
        "process.simulate_self_ms": self_ms("process.simulate_enar", "process.simulate_amnar"),
        "process.write_panel_csv_ms": ms("process.write_panel_csv"),
        "process.read_panel_csv_ms": ms("process.read_panel_csv"),
        "process.panel_bytes": (sum(vals["panel_bytes"]) / units, "bytes"),
        "estimate.build_design_ms": ms("estimate.build_design"),
        "estimate.fit_ls_ms": ms("estimate.fit_ls"),
        "estimate.design_rows": mean("design_rows"),
        "estimate.design_cols": mean("design_cols"),
        "estimate.fit_enar_self_ms": self_ms("estimate.fit_enar"),
        "estimate.fit_amnar_self_ms": self_ms("estimate.fit_amnar"),
        "estimate.predict_one_step_ms": ms("estimate.predict_one_step"),
        "lsm.fit_lsm_ms": ms("lsm.fit_lsm"),
        "lsm.sample_lsm_graph_ms": ms("lsm.sample_lsm_graph"),
        "lsm.iters": mean("lsm_iters"),
        "lsm.converged_frac": mean("lsm_converged", "fraction"),
        "lsm.step_failed": (sum(r.step_failed for r in traced) / units, "count"),
        "lsm.loglik_calls": per_unit("lsm.lsm_loglik"),
        "lsm.gradient_calls": per_unit("lsm.lsm_gradient"),
        "bench.run_replication_ms": ms("bench.run_replication"),
        "bench.simulate_cell_data_ms": ms("bench.simulate_cell_data"),
        "bench.simulate_cell_data_self_ms": self_ms("bench.simulate_cell_data"),
        "bench.sims_per_row": (calls["bench.simulate_cell_data"] / units, "ratio"),
        "bench.cpu_ms_per_row": (1000.0 * cpu_s / max(cpu_rows, 1), "ms"),
        "bench.cpu_util": (cpu_s / (cpu_wall * nproc) if cpu_wall else 0.0, "fraction"),
        "bench.results_to_csv_ms": ms("bench.results_to_csv"),
        "bench.summarize_ms": ms("bench.summarize"),
        "cli.simulate_ms": ms("cli.cmd_simulate"),
        "cli.fit_ms": ms("cli.cmd_fit"),
        "cli.predict_ms": ms("cli.cmd_predict"),
        "cli.simulate_self_ms": self_ms("cli.cmd_simulate"),
        "cli.fit_self_ms": self_ms("cli.cmd_fit"),
        "cli.predict_self_ms": self_ms("cli.cmd_predict"),
        "trace.coverage": (trace.top_level_seconds() / untraced_s if untraced_s else 0.0,
                           "fraction"),
        "trace.overhead": (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "fraction"),
    }
    return m, lines


# ---------------------------------------------------------------- setup


def import_enarkit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import enarkit.cli  # noqa: F401

    where = Path(sys.modules["enarkit"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"enarkit imported from {where}, not from {src}")


def setup_once(w: Workload) -> float:
    """Seconds to import enarkit and complete one toy-size request."""
    start = time.perf_counter()
    import_enarkit()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        client = Client(w, w.toy, 0, workdir)
        if w.kind == "mc":
            client.mc(0, w.jobs)
        else:
            client.round_trip()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return time.perf_counter() - start


def setup_probes(w: Workload) -> list[float]:
    """setup_once in fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------- environment


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].endswith(".so")})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------- main


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    size = w.toy if args.toy else w.full
    try:
        setup = [setup_once(w)]
    except ImportError as exc:
        print(f"cannot import enarkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {w.name}: seed {args.seed}, {args.seconds} s, "
          f"{'toy' if args.toy else 'full'} size N={size.n} T={size.t}, trace {args.trace}")

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        client = Client(w, size, args.seed, workdir)
        if args.trace:
            metrics, lines, attempted, failed = measure_traced(w, client, args.seconds)
        else:
            metrics, lines, attempted, failed = measure(w, client, args.seconds)
        lines += client.check_rmse()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += setup_probes(w)
        metrics["setup_s"] = (statistics.median(setup), "s")
        lines.append(f"setup_s = {metrics['setup_s'][0]:.4g} s (median of {len(setup)} "
                     f"interpreters: import + one toy request)")
    with contextlib.suppress(OSError):
        WORK.rmdir()

    for line in lines:
        print(line)
    for problem in client.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not client.problems and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        print(f"== {name}", flush=True)
        code = subprocess.run(argv, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes (for the smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_once(WORKLOADS[args.workload]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

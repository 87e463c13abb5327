"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark wraps the functions listed in ``perfbench/spans.py`` and reads
a few attributes off their results. A change that drops one of them would
otherwise surface only when the benchmark runs; these tests read
``spans.py`` as it is and fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from enarkit import bench, estimate, lsm, network, process

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    importlib.import_module("enarkit.cli")  # as the benchmark does, before tracing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves(spans):
    for mod_name, fn_name in spans.TRACED:
        module = importlib.import_module(f"enarkit.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"enarkit.{mod_name}.{fn_name}"


def small_case(n=24, t=5):
    rng = np.random.default_rng(3)
    p = network.ConnectionOperator(network.RdpgSpec(np.full((n, 1), 0.6)))
    graph = network.sample_graph(p, rng)
    latent = network.spectral_embed(graph, 1).vectors
    params = process.EnarParams(0.2, 0.2, np.array([1.0]), np.array([0.5]), 1.0)
    cov = process.CovariateSpec(np.array([1.0]))
    return graph, latent, params, cov, rng


def test_attributes_read_off_results(monkeypatch):
    graph, latent, params, cov, rng = small_case()
    moments = process.stationary_moments(graph, latent @ params.beta, params, cov)
    assert isinstance(moments.iterations, int)
    monkeypatch.setattr(lsm, "MAX_ITERS", 3)
    fit = lsm.fit_lsm(graph, 1)
    assert isinstance(fit.n_iters, int) and isinstance(fit.converged, bool)
    panel = process.simulate_enar(params, graph, latent, cov, 5, rng)
    lap = network.normalized_laplacian(graph)
    w, _ = estimate.build_design(panel, lap, latent, estimate.DesignSpec("enar", 1))
    assert w.shape == (graph.n * 5, 4)


def test_traced_replication_records_counts(spans):
    config = bench.ExperimentConfig(
        n_values=[24], t_values=[5], k_values=[1], generators=["dcmmsbm"],
        truth_models=["amnar"], fit_models=["amnar"], reps=1, base_seed=2,
    )
    trace = spans.Trace()
    with spans.Tracer(trace):
        result = bench.run_replication(config.cells()[0], 0, config)
    assert result.status == "ok"
    names = {s.name for s in trace.spans}
    assert {spans.ROW_SPAN, "estimate.build_design", "lsm.fit_lsm"} <= names
    for key in ("design_rows", "design_cols", "lyapunov_iters", "lsm_iters"):
        assert trace.values[key], key
    # the wrappers are removed again
    assert bench.run_replication.__module__ == "enarkit.bench"
    assert not hasattr(bench.run_replication, "__wrapped__")


def test_traced_grid_tags_one_row_span_per_row(spans):
    # the benchmark attributes spans to rows through the row span's first
    # argument; the shared data draw must stay outside the row spans
    config = bench.ExperimentConfig(
        n_values=[20], t_values=[5], k_values=[2], generators=["dcmmsbm"],
        truth_models=["nar", "enar"], fit_models=["enar", "nar"], reps=2, base_seed=4,
    )
    trace = spans.Trace()
    with spans.Tracer(trace):
        rows = bench.run_grid(config)
    assert len(rows) == 8 and all(r.status == "ok" for r in rows)
    row_spans = [s for s in trace.spans if s.name == spans.ROW_SPAN]
    assert sorted(s.tag for s in row_spans) == sorted(r.fit for r in rows)
    sims = [s for s in trace.spans if s.name == "bench.simulate_cell_data"]
    assert len(sims) == 4  # two truths x two reps
    assert all(s.row is None for s in sims)
    designs = [s for s in trace.spans if s.name == "estimate.build_design"]
    assert len(designs) == 8 and all(s.row is not None for s in designs)
    # one Laplacian per draw: the simulation builds it on the graph, and the
    # true forecast and the fits reuse it
    laplacians = [s for s in trace.spans if s.name == "network.normalized_laplacian"]
    assert len(laplacians) == len(sims)

"""Per-layer spans for enarkit, recorded from outside the package.

A fixed list of public functions is wrapped while a trace is active. Each
wrapper is bound into every ``enarkit`` module namespace that holds the
original object, so calls made inside the package (``fit_enar`` calling
``spectral_embed``, ``simulate_enar`` calling ``stationary_moments``) become
nested child spans. A span's self time is its duration minus the time of its
direct children.

Besides times, the wrappers read counts off arguments and return values:
Lyapunov and latent-space iterations, design shapes, panel array bytes, and
every ``Graph`` that crosses a wrapped boundary (for edge and isolated-node
counts). Nothing inside the package is modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function) pairs wrapped during a trace; the span name is
# "<module>.<function>".
TRACED = (
    ("network", "connection_matrix"),
    ("network", "normalized_laplacian"),
    ("network", "embed_symmetric"),
    ("network", "spectral_embed"),
    ("network", "read_edge_csv"),
    ("network", "write_edge_csv"),
    ("process", "stationary_moments"),
    ("process", "simulate_enar"),
    ("process", "simulate_amnar"),
    ("process", "write_panel_csv"),
    ("process", "read_panel_csv"),
    ("estimate", "fit_enar"),
    ("estimate", "fit_amnar"),
    ("estimate", "build_design"),
    ("estimate", "fit_ls"),
    ("estimate", "predict_one_step"),
    ("lsm", "fit_lsm"),
    ("lsm", "sample_lsm_graph"),
    ("lsm", "lsm_loglik"),
    ("lsm", "lsm_gradient"),
    ("bench", "run_replication"),
    ("bench", "simulate_cell_data"),
    ("bench", "results_to_csv"),
    ("bench", "summarize"),
    ("bench", "summary_to_csv"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_fit"),
    ("cli", "cmd_predict"),
)

# The span that marks one Monte Carlo result row; spans below it are
# attributed to that row and its fit model.
ROW_SPAN = "bench.run_replication"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    row: int | None = None  # index of the enclosing row span, if any
    tag: str | None = None  # fit model, on row spans
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


@dataclass
class Trace:
    """Spans and counts of one traced request (or several, appended)."""

    spans: list[Span] = field(default_factory=list)
    # name -> list of observed values (iterations, shapes, bytes)
    values: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    graphs: dict[int, object] = field(default_factory=dict)

    def top_level_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def flush_graphs(self) -> None:
        """Record edge and isolated-node counts of the graphs seen so far,
        then drop the references (dense adjacencies are large)."""
        for g in self.graphs.values():
            degrees = g.adjacency.sum(axis=1)
            self.values["edges"].append(float(degrees.sum()) / 2.0)
            self.values["isolated_nodes"].append(float((degrees == 0).sum()))
        self.graphs.clear()


def _observe(trace: Trace, name: str, args: tuple, result) -> None:
    """Read counts off a wrapped call's arguments and result."""
    graph_cls = sys.modules["enarkit.network"].Graph
    for obj in (*args, result):
        if isinstance(obj, graph_cls):
            trace.graphs.setdefault(id(obj), obj)
    if name == "process.stationary_moments":
        trace.values["lyapunov_iters"].append(result.iterations)
    elif name == "estimate.build_design":
        rows, cols = result[0].shape
        trace.values["design_rows"].append(rows)
        trace.values["design_cols"].append(cols)
    elif name == "lsm.fit_lsm":
        trace.values["lsm_iters"].append(result.n_iters)
        trace.values["lsm_converged"].append(float(result.converged))
    elif name == "process.write_panel_csv":
        trace.values["panel_bytes"].append(args[0].y.nbytes + args[0].z.nbytes)
    elif name == "process.read_panel_csv":
        trace.values["panel_bytes"].append(result.y.nbytes + result.z.nbytes)


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block.

    Spans are kept in memory in ``trace``; they are read after the block.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        trace, stack = self.trace, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            row = trace.spans[parent].row if parent is not None else None
            span = Span(name, 0.0, parent=parent, row=row)
            if name == ROW_SPAN:
                span.row = len(trace.spans)
                span.tag = args[0].fit
            trace.spans.append(span)
            stack.append(len(trace.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    trace.spans[parent].child_s += span.seconds
            _observe(trace, name, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "enarkit" or key.startswith("enarkit.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"enarkit.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

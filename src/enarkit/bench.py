"""Monte Carlo experiment grids: generate, simulate, fit, score, summarize.

A grid crosses (generator, truth model, fit model, N, T, K); each
replication derives its seed from the base seed and the cell coordinates
so the runs are reproducible under any execution order or worker count.
The fit model is deliberately left out of the seed so that competing fits
of the same cell see the same simulated data, which is what the estimation
comparisons assume. ``run_grid`` therefore draws each replication's data
once, with its true forecast, and scores every fit model on that one draw,
whose ``Graph`` keeps its normalized Laplacian for the simulation and all
the fits. Each stage of a replication draws from its own child of
``np.random.SeedSequence(seed)`` (see ``STAGES``), so the numbers one stage
uses never move another's, and every fit starts its own generator from the
fit stage's child, so a row does not depend on which other fits share its
draw.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import blas, estimate, lsm, network, process
from .csvio import Table, load_columns, write_table
from .errors import DataError, EmptyGroup, check_type

GENERATORS = ("dcsbm", "dcmmsbm", "rdpg")
TRUTH_MODELS = ("nar", "enar", "amnar")
FIT_MODELS = ("nar", "enar", "amnar")

METRIC_COLUMNS = [
    "alpha_hat", "theta_hat", "rmse_alpha", "rmse_theta", "rmse_beta",
    "rmsp", "sigma2_hat", "aic", "bic",
]


def alternating_beta(k: int) -> np.ndarray:
    """Alternating-sign harmonic latent effects (1, -1/2, ..., (-1)^{K-1}/K)."""
    return np.array([(-1.0) ** j / (j + 1) for j in range(k)])


@dataclass(frozen=True)
class Cell:
    gen: str
    truth: str
    fit: str
    n: int
    t: int
    k: int


@dataclass
class ExperimentConfig:
    """Grid coordinates plus the shared simulation parameters.

    ``rho`` of None means the sparsity rule N^{-1/2}; ``beta`` of None means
    the alternating-sign rule sized to each cell's K. ``oracle_latents``
    plumbs the true latent matrices into the fits (a debugging mode that
    makes noiseless runs exactly recoverable). ``lsm_max_iters`` caps the
    latent-space MLE of the amnar fits.
    """

    n_values: list[int]
    t_values: list[int]
    k_values: list[int]
    generators: list[str] = field(default_factory=lambda: ["dcmmsbm"])
    truth_models: list[str] = field(default_factory=lambda: ["enar"])
    fit_models: list[str] = field(default_factory=lambda: ["enar", "nar"])
    reps: int = 200
    base_seed: int = 0
    alpha: float = 0.2
    theta: float = 0.2
    beta: np.ndarray | None = None
    beta2: float = 1.0
    s: float = 0.25
    gamma: np.ndarray = field(default_factory=lambda: np.array([1 / 3, -1 / 6, 0.0]))
    sigma: float = 0.5
    cov_variances: np.ndarray = field(default_factory=lambda: np.array([3.0, 2.0, 1.0]))
    q_block: float = 9.0 / 40.0
    rho: float | None = None
    oracle_latents: bool = False
    lsm_max_iters: int = lsm.MAX_ITERS

    def __post_init__(self):
        if check_type(self.reps, (int,), "reps") < 1:
            raise DataError("reps must be >= 1")
        if check_type(self.lsm_max_iters, (int,), "lsm_max_iters") < 0:
            raise DataError("lsm_max_iters must be >= 0")
        for name, vals in (("n", self.n_values), ("t", self.t_values), ("k", self.k_values)):
            if not vals or any(
                check_type(v, (int,), f"{name}_values element {i}") < 1 for i, v in enumerate(vals)
            ):
                raise DataError(f"{name}_values must be positive")
        for g in self.generators:
            if g not in GENERATORS:
                raise DataError(f"unknown generator {g!r}")
        for m in self.truth_models:
            if m not in TRUTH_MODELS:
                raise DataError(f"unknown truth model {m!r}")
        for m in self.fit_models:
            if m not in FIT_MODELS:
                raise DataError(f"unknown fit model {m!r}")
        if not 0.0 < self.q_block <= 1.0 / 3.0:
            raise DataError("q_block must lie in (0, 1/3]")
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.cov_variances = np.asarray(self.cov_variances, dtype=float)
        if self.beta is not None:
            self.beta = np.asarray(self.beta, dtype=float)

    def cells(self) -> list[Cell]:
        return [
            Cell(g, tr, f, n, t, k)
            for g, tr, f, n, t, k in product(
                self.generators, self.truth_models, self.fit_models,
                self.n_values, self.t_values, self.k_values,
            )
        ]

    def rho_for(self, n: int) -> float:
        return float(self.rho) if self.rho is not None else n ** -0.5

    def beta_for(self, k: int) -> np.ndarray:
        return self.beta if self.beta is not None else alternating_beta(k)

    def cov_spec(self) -> process.CovariateSpec:
        return process.CovariateSpec(len(self.cov_variances), self.cov_variances)


@dataclass
class ReplicationResult:
    gen: str
    truth: str
    fit: str
    n: int
    t: int
    k: int
    rep: int
    seed: int
    alpha_hat: float = math.nan
    theta_hat: float = math.nan
    rmse_alpha: float = math.nan
    rmse_theta: float = math.nan
    rmse_beta: float = math.nan
    rmsp: float = math.nan
    sigma2_hat: float = math.nan
    aic: float = math.nan
    bic: float = math.nan
    status: str = "ok"
    wall_ms: float = 0.0


# The results CSV holds the ReplicationResult fields in order; this is how
# its reader parses each (seeds are full 64-bit splitmix hashes).
_RESULT_DTYPE = np.dtype([
    (f.name, np.uint64 if f.name == "seed"
     else {"str": object, "int": np.int64, "float": np.float64}[f.type])
    for f in fields(ReplicationResult)
])
RESULT_COLUMNS = [name.upper() if name in ("n", "t", "k") else name
                  for name in _RESULT_DTYPE.names]


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, cell: Cell, rep_index: int) -> int:
    """Splitmix-style hash of (base seed, data coordinates, rep index).

    The fit model is excluded on purpose: all fits of one replication score
    the same data, which ``run_grid`` draws once and shares among them.
    """
    state = _splitmix64(base_seed & _MASK64)
    payload = f"{cell.gen}|{cell.truth}|{cell.n}|{cell.t}|{cell.k}|{rep_index}".encode()
    payload += b"\x00" * (-len(payload) % 8)
    for off in range(0, len(payload), 8):
        chunk = int.from_bytes(payload[off : off + 8], "little")
        state = _splitmix64(state ^ chunk)
    return state


# The stages of a replication, in the order of their SeedSequence children:
# generator spec or planted latent-space state, graph, panel (whose start
# draw and recursion the simulation splits in two again), forecast-time
# covariates, and the fit.
STAGES = ("latents", "graph", "panel", "z_next", "fit")


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """Generator of one of ``STAGES`` for the replication seeded ``seed``:
    the child that ``np.random.SeedSequence(seed).spawn`` makes at that
    stage's position."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STAGES.index(stage),))
    )


def _make_generator_spec(cell: Cell, config: ExperimentConfig, rng: np.random.Generator):
    """Generator spec for one cell, with the average expected degree pinned
    to N * rho.

    The block-model sampler rescales to a target maximum row sum, so the
    target is inflated by the max/mean row-sum ratio of the unnormalized
    connection matrix; the sampled graphs then have average expected degree
    N * rho (a pure max-degree target under log-normal heterogeneity leaves
    the graphs almost empty).
    """
    n, k = cell.n, cell.k
    rho = config.rho_for(n)
    if cell.gen == "rdpg":
        x = np.abs(rng.standard_normal((n, k)))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return network.RdpgSpec(x, rho)
    block = 2.0 * config.q_block * np.eye(k) + config.q_block * np.ones((k, k))
    degrees = rng.lognormal(0.0, 1.0, size=n)
    if cell.gen == "dcsbm":
        memberships = rng.integers(0, k, size=n)
        cls = network.DcsbmSpec
    else:
        memberships = rng.dirichlet(np.ones(k), size=n)
        cls = network.DcmmsbmSpec
    m = cls(block, memberships, degrees, 1.0).membership_matrix()
    row_sums = _hollow_row_sums(degrees, m, block)
    max_deg = n * rho * row_sums.max() / row_sums.mean()
    return cls(block, memberships, degrees, max_deg)


def _hollow_row_sums(theta: np.ndarray, m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Row sums of Theta M B M' Theta with its diagonal zeroed, in O(N K^2)
    without forming the N x N matrix:
    theta * (M B (M' theta)) - theta^2 * diag(M B M')."""
    mb = m @ block
    return theta * (mb @ (m.T @ theta)) - theta**2 * np.einsum("ij,ij->i", mb, m)


def _planted_lsm_state(cell: Cell, config: ExperimentConfig, rng: np.random.Generator) -> lsm.LsmState:
    n, k = cell.n, cell.k
    rho = config.rho_for(n)
    q = 0.5 * rng.standard_normal((n, k))
    base = 0.5 * math.log(rho / (1.0 - rho))
    v = base + 0.3 * rng.standard_normal(n)
    return lsm.project_constraints(lsm.LsmState(q, v))


def _truth_params(cell: Cell, config: ExperimentConfig):
    if cell.truth == "amnar":
        return process.AmnarParams(
            alpha=config.alpha, theta=config.theta,
            beta1=config.beta_for(cell.k), beta2=config.beta2,
            gamma=config.gamma, sigma=config.sigma, s=config.s,
        )
    beta = config.beta_for(cell.k) if cell.truth == "enar" else np.zeros(0)
    return process.EnarParams(
        alpha=config.alpha, theta=config.theta, beta=beta,
        gamma=config.gamma, sigma=config.sigma,
    )


@dataclass
class CellData:
    """One replication's data draw plus the truth needed for scoring."""

    graph: network.Graph
    panel: process.Panel
    params: object
    latent_true: np.ndarray | None
    truth_spec: estimate.DesignSpec
    mu_true: np.ndarray
    r_true: float | None
    z_next: np.ndarray


def simulate_cell_data(cell: Cell, config: ExperimentConfig, seed: int) -> CellData:
    """Draw the graph, truth latents, panel, and forecast-time covariates.

    Each stage draws from its own stream (:func:`stage_rng`), so the draw
    depends only on the data coordinates (gen, truth, N, T, K) and the
    seed, never on the fit.
    """
    cov = config.cov_spec()
    params = _truth_params(cell, config)
    if cell.truth == "amnar":
        state_true = _planted_lsm_state(cell, config, stage_rng(seed, "latents"))
        graph = lsm.sample_lsm_graph(state_true, stage_rng(seed, "graph"))
        latent_true = state_true.x()
        panel = process.simulate_amnar(
            params, graph, latent_true, cov, cell.t, stage_rng(seed, "panel")
        )
        truth_spec = estimate.DesignSpec("amnar", cell.k, s=config.s)
        r_true = process.rate_multiplier(cell.n, cell.t, config.s)
        mu_true = np.concatenate([params.beta, [params.alpha, params.theta], params.gamma])
    else:
        gen_spec = _make_generator_spec(cell, config, stage_rng(seed, "latents"))
        p_matrix = network.connection_matrix(gen_spec)
        graph = network.sample_graph(p_matrix, stage_rng(seed, "graph"))
        if cell.truth == "enar":
            latent_true = network.embed_symmetric(p_matrix, cell.k).vectors
            truth_spec = estimate.DesignSpec("enar", cell.k)
            mu_true = np.concatenate([params.beta, [params.alpha, params.theta], params.gamma])
        else:
            latent_true = None
            truth_spec = estimate.DesignSpec("nar")
            mu_true = np.concatenate([[params.alpha, params.theta], params.gamma])
        del p_matrix  # the draw's last N x N array; the simulation holds none
        panel = process.simulate_enar(
            params, graph,
            latent_true if latent_true is not None else np.zeros((cell.n, 0)),
            cov, cell.t, stage_rng(seed, "panel"),
        )
        r_true = None
    z_next = stage_rng(seed, "z_next").standard_normal((cell.n, cov.p)) * np.sqrt(cov.variances)
    return CellData(
        graph=graph, panel=panel, params=params, latent_true=latent_true,
        truth_spec=truth_spec, mu_true=mu_true, r_true=r_true, z_next=z_next,
    )


@dataclass
class SharedDraw:
    """One replication's data plus the true noise-free forecast that every
    fit of it is scored against. The graph in ``data`` carries its
    normalized Laplacian."""

    data: CellData
    target: np.ndarray


def draw_replication(cell: Cell, config: ExperimentConfig, seed: int) -> SharedDraw:
    """Draw the data of ``cell`` from ``seed``; the fit model plays no part.
    The simulation builds ``data.graph.laplacian``, which the true forecast
    and the fits reuse."""
    data = simulate_cell_data(cell, config, seed)
    y_last = data.panel.y[:, -1]
    w_true = estimate.design_rows(
        data.truth_spec, data.graph.laplacian, data.latent_true, y_last[:, None],
        data.z_next[:, None, :], data.r_true,
    )
    return SharedDraw(data, w_true @ data.mu_true)


def run_replication(
    cell: Cell,
    rep_index: int,
    config: ExperimentConfig,
    draw: SharedDraw | Exception | None = None,
) -> ReplicationResult:
    """One fit-score pass; failures are recorded, not raised.

    ``draw`` is the replication's shared data draw, or the exception that
    drawing it raised; when None the data is drawn here.
    """
    seed = derive_seed(config.base_seed, cell, rep_index)
    out = ReplicationResult(
        gen=cell.gen, truth=cell.truth, fit=cell.fit,
        n=cell.n, t=cell.t, k=cell.k, rep=rep_index, seed=seed,
    )
    started = time.perf_counter()
    try:
        if draw is None:
            draw = draw_replication(cell, config, seed)
        if isinstance(draw, Exception):
            raise draw
        _fit_and_score(cell, config, draw, out)
    except Exception as exc:  # per-row capture keeps the grid alive
        out.status = type(exc).__name__
    out.wall_ms = (time.perf_counter() - started) * 1000.0
    return out


def _fit_and_score(
    cell: Cell, config: ExperimentConfig, draw: SharedDraw, out: ReplicationResult
) -> None:
    data = draw.data
    graph, panel, params = data.graph, data.panel, data.params
    latent_true, z_next = data.latent_true, data.z_next

    # fit stage
    if config.oracle_latents and cell.fit == cell.truth and cell.fit != "nar":
        fit, _ = estimate.fit_with_latents(panel, graph, latent_true, data.truth_spec)
        latent_fit = latent_true
    elif cell.fit == "amnar":
        fit, state_hat, _ = estimate.fit_amnar(
            panel, graph, cell.k, config.s, stage_rng(out.seed, "fit"),
            max_iters=config.lsm_max_iters,
        )
        latent_fit = state_hat.x()
    elif cell.fit == "enar":
        fit, emb, _ = estimate.fit_enar(panel, graph, cell.k)
        latent_fit = emb.vectors
    else:
        fit, _, _ = estimate.fit_enar(panel, graph, 0)
        latent_fit = None

    out.alpha_hat = fit.coef("alpha")
    out.theta_hat = fit.coef("theta")
    out.sigma2_hat = fit.sigma2_hat
    out.aic = fit.aic
    out.bic = fit.bic
    if params.alpha != 0:
        out.rmse_alpha = abs(out.alpha_hat - params.alpha) / abs(params.alpha)
    if params.theta != 0:
        out.rmse_theta = abs(out.theta_hat - params.theta) / abs(params.theta)
    out.rmse_beta = _beta_error(cell, params, fit, latent_fit, latent_true)

    y_hat = estimate.predict_one_step(fit, graph, panel.y[:, -1], z_next, latent_fit)
    denom = float(np.linalg.norm(draw.target))
    if denom > 0:
        out.rmsp = float(np.linalg.norm(y_hat - draw.target)) / denom


def _beta_error(cell: Cell, params, fit, latent_fit, latent_true) -> float:
    """Relative latent-effect error after aligning the estimated latent basis
    to the truth; undefined combinations give NaN."""
    if cell.fit == "nar" or cell.fit != cell.truth or latent_true is None:
        return math.nan
    n_latent = fit.spec.latent_cols
    beta_hat = fit.mu_hat[:n_latent]
    if cell.truth == "enar":
        beta_true = params.beta
        if np.linalg.norm(beta_true) == 0:
            return math.nan
        h, _ = network.procrustes_align(latent_fit, latent_true)
        return float(np.linalg.norm(beta_hat - h.T @ beta_true) / np.linalg.norm(beta_true))
    beta_true = params.beta
    if np.linalg.norm(beta_true) == 0:
        return math.nan
    h, _ = network.procrustes_align(latent_fit[:, : cell.k], latent_true[:, : cell.k])
    target = np.concatenate([h.T @ params.beta1, [params.beta2]])
    return float(np.linalg.norm(beta_hat - target) / np.linalg.norm(beta_true))


def _run_task(args: tuple[list[Cell], int, ExperimentConfig]) -> list[ReplicationResult]:
    """Every fit of one replication, scored on one shared data draw.

    Each row's ``wall_ms`` is its own fit time plus an equal share of the
    draw; a failed draw fails every row with the draw's exception type.
    """
    cells, rep_index, config = args
    seed = derive_seed(config.base_seed, cells[0], rep_index)
    started = time.perf_counter()
    try:
        draw = draw_replication(cells[0], config, seed)
    except Exception as exc:  # recorded on every row of this draw
        draw = exc
    share_ms = (time.perf_counter() - started) * 1000.0 / len(cells)
    rows = [run_replication(cell, rep_index, config, draw) for cell in cells]
    for row in rows:
        row.wall_ms += share_ms
    return rows


def run_grid(config: ExperimentConfig, parallelism: int = 1) -> list[ReplicationResult]:
    """All cells x reps, in canonical order regardless of execution order.

    One task per data draw (gen, truth, N, T, K, rep) fits every model in
    ``config.fit_models``; at most one worker process per task is started.
    Every task runs BLAS on one thread, in this process and in the workers
    alike, so parallelism comes from ``parallelism`` alone and the rows do
    not depend on the BLAS thread count.
    """
    draws: dict[tuple, list[Cell]] = {}
    for cell in config.cells():
        draws.setdefault((cell.gen, cell.truth, cell.n, cell.t, cell.k), []).append(cell)
    tasks = [(cells, rep, config) for cells in draws.values() for rep in range(config.reps)]
    workers = min(parallelism, len(tasks))
    # held while the pool starts, so forked workers begin with one thread
    with blas.one_thread():
        if workers > 1:
            chunk = max(1, len(tasks) // (8 * workers))
            with ProcessPoolExecutor(max_workers=workers, initializer=blas.pin_worker) as pool:
                batches = list(pool.map(_run_task, tasks, chunksize=chunk))
        else:
            batches = [_run_task(t) for t in tasks]
    results = [row for batch in batches for row in batch]
    results.sort(key=lambda r: (r.gen, r.truth, r.fit, r.n, r.t, r.k, r.rep))
    return results


def results_to_csv(results: list[ReplicationResult], path: str, timing: bool = True) -> None:
    """Write the stable results schema; ``timing=False`` zeroes the wall-clock
    column so outputs can be compared byte for byte."""
    write_table(path, RESULT_COLUMNS, (
        [getattr(r, name) if timing or name != "wall_ms" else 0.0
         for name in _RESULT_DTYPE.names]
        for r in results
    ))


def read_results_csv(path: str) -> list[ReplicationResult]:
    """Exact inverse of :func:`results_to_csv`.

    Blank lines are skipped. A header other than RESULT_COLUMNS raises
    :class:`DataError`, and so does a row that lacks a column or holds a
    field that does not parse, naming the row.
    """
    table = Table(path)
    if table.header != RESULT_COLUMNS:
        raise DataError(f"{path}: unexpected results header {table.header}")
    lines = table.lines
    if not lines:
        return []
    rows = load_columns(
        lines, range(len(RESULT_COLUMNS)), _RESULT_DTYPE,
        lambda j: f"{table.where(j)}: cannot parse {lines[j]!r}",
    )
    return [ReplicationResult(*row) for row in rows.tolist()]


_GROUP_FIELDS = {"n", "t", "k", "gen", "truth", "fit", "rep", "seed"}


def _group_field(name: str) -> str:
    key = name.lower()
    if key not in _GROUP_FIELDS:
        raise DataError(f"cannot group by {name!r}")
    return key


def summarize(results: list[ReplicationResult], group_by: list[str]) -> list[dict]:
    """Per-group distribution summary of every metric, long format.

    Each output row holds one (group, metric) pair with count, mean, sd,
    median, and quartiles over the non-NaN values; a ``failure_rate`` metric
    reports the share of non-ok rows per group.
    """
    if not results:
        raise EmptyGroup("no results to summarize")
    fields = [_group_field(g) for g in group_by]
    groups: dict[tuple, list[ReplicationResult]] = {}
    for r in results:
        groups.setdefault(tuple(getattr(r, f) for f in fields), []).append(r)

    rows = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        members = groups[key]
        base = dict(zip(group_by, key))
        for metric in METRIC_COLUMNS:
            vals = np.array([getattr(r, metric) for r in members], dtype=float)
            vals = vals[np.isfinite(vals)]
            row = dict(base)
            row["metric"] = metric
            row["count"] = int(vals.size)
            if vals.size:
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                row.update(
                    mean=float(vals.mean()),
                    sd=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                    median=float(med), q1=float(q1), q3=float(q3),
                )
            else:
                row.update(mean=math.nan, sd=math.nan, median=math.nan,
                           q1=math.nan, q3=math.nan)
            rows.append(row)
        n_fail = sum(1 for r in members if r.status != "ok")
        rows.append(dict(base, metric="failure_rate", count=len(members),
                         mean=n_fail / len(members), sd=0.0,
                         median=math.nan, q1=math.nan, q3=math.nan))
    return rows


def summary_to_csv(rows: list[dict], group_by: list[str], path: str) -> None:
    cols = list(group_by) + ["metric", "count", "mean", "sd", "median", "q1", "q3"]
    write_table(path, cols, ([row[c] for c in cols] for row in rows))

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
uses never move another's. The fits draw nothing, so a row does not depend
on which other fits share its draw. An enar or nar truth's connection
matrix stays a ``network.ConnectionOperator``: the graph is swept from it in
strips of rows and the truth embedding takes products with it, so no draw
forms an N x N array. Every fit is ``estimate.fit_model`` of the spec that
``ExperimentConfig.design_spec`` builds, as the truth's is (the oracle mode
fits the true latents instead). A config error that does not depend on the
seed, a wrong type in ``CONFIG_TYPES`` among them, is raised by
``ExperimentConfig`` before any row runs; a row's status records only what
a draw or a fit raised.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import blas, estimate, lsm, network, process
from .csvio import write_table
from .errors import (
    NUMBER, DataError, DimensionMismatch, EmptyGroup, NotStationary, ShapeMismatch, check_type,
)

GENERATORS = ("dcsbm", "dcmmsbm", "rdpg")
TRUTH_MODELS = ("nar", "enar", "amnar")
FIT_MODELS = ("nar", "enar", "amnar")

# The JSON type of each ExperimentConfig field (see errors.check_type); the
# model parameters are shared with the simulate command.
PARAM_TYPES = {
    "alpha": NUMBER, "theta": NUMBER, "beta": [NUMBER], "beta2": NUMBER, "s": NUMBER,
    "gamma": [NUMBER], "sigma": NUMBER, "cov_variances": [NUMBER], "q_block": NUMBER,
    "rho": NUMBER,
}
CONFIG_TYPES = {
    "n_values": [(int,)], "t_values": [(int,)], "k_values": [(int,)],
    "generators": [(str,)], "truth_models": [(str,)], "fit_models": [(str,)],
    "reps": (int,), "base_seed": (int,), **PARAM_TYPES, "oracle_latents": (bool,),
}

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
    makes noiseless runs exactly recoverable).

    Construction raises every error that does not depend on the seed, as
    the type a row would record: it checks each field's type in
    ``CONFIG_TYPES`` (for Python callers and CLI configs alike), builds the
    covariate law and its innovation variance, each truth's parameters and
    each fit's ``DesignSpec`` at every K, and checks stationarity, rho, the
    length of ``beta`` and K <= N.
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

    def __post_init__(self):
        for f in fields(self):  # a numpy array stands for a JSON list
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            if value is not None or f.default is not None:  # None only where it is the default
                check_type(value, CONFIG_TYPES[f.name], f"key {f.name!r}")
        if self.reps < 1:
            raise DataError("reps must be >= 1")
        for name, vals in (("n", self.n_values), ("t", self.t_values), ("k", self.k_values)):
            if min(vals, default=0) < 1:
                raise DataError(f"{name}_values must be positive")
        for what, names, known in (("generator", self.generators, GENERATORS),
                                   ("truth model", self.truth_models, TRUTH_MODELS),
                                   ("fit model", self.fit_models, FIT_MODELS)):
            for name in names:
                if name not in known:
                    raise DataError(f"unknown {what} {name!r}")
        if not 0.0 < self.q_block <= 1.0 / 3.0:
            raise DataError("q_block must lie in (0, 1/3]")
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.cov_variances = np.asarray(self.cov_variances, dtype=float)
        if self.gamma.shape != self.cov_variances.shape:
            raise DataError(f"gamma has {self.gamma.size} entries but cov_variances "
                            f"has {self.cov_variances.size}")
        if self.beta is not None:
            self.beta = np.asarray(self.beta, dtype=float)
        process.innovation_variance(self.sigma, self.gamma, self.cov_spec())
        if not process.check_stationarity(self.alpha, self.theta):
            raise NotStationary(f"|{self.alpha}| + |{self.theta}| >= 1")
        drawn = set(self.truth_models) - {"amnar"}  # truths drawn by a generator
        rho_max = 1.0 if "rdpg" in self.generators else math.inf
        for n in self.n_values:
            rho = self.rho_for(n)
            if "amnar" in self.truth_models and not 0.0 < rho < 1.0:
                raise DataError(f"an amnar truth needs rho in (0, 1), got {rho} at N = {n}")
            if drawn and not 0.0 < rho <= rho_max:
                raise DataError(f"a generator needs rho > 0 (<= 1 for rdpg), got {rho} at N = {n}")
        embeds = "enar" in self.truth_models or {"enar", "amnar"} & set(self.fit_models)
        if embeds and max(self.k_values) > min(self.n_values):
            raise ShapeMismatch(f"K = {max(self.k_values)} exceeds N = {min(self.n_values)}")
        for k in self.k_values:
            for truth in self.truth_models:
                if self.truth_params(truth, k).k != (0 if truth == "nar" else k):
                    raise DimensionMismatch(f"beta has {self.beta.size} entries but K = {k}")
            for fit in self.fit_models:
                self.design_spec(fit, k)

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
        return process.CovariateSpec(self.cov_variances)

    def truth_params(self, truth: str, k: int) -> process.EnarParams | process.AmnarParams:
        """The parameters of ``truth`` in a cell of dimension ``k``; nar has no beta."""
        if truth == "amnar":
            return process.AmnarParams(
                alpha=self.alpha, theta=self.theta, beta1=self.beta_for(k), beta2=self.beta2,
                gamma=self.gamma, sigma=self.sigma, s=self.s,
            )
        return process.EnarParams(
            alpha=self.alpha, theta=self.theta,
            beta=self.beta_for(k) if truth == "enar" else np.zeros(0),
            gamma=self.gamma, sigma=self.sigma,
        )

    def design_spec(self, model: str, k: int) -> estimate.DesignSpec:
        """The design of ``model`` in a cell of dimension ``k``, for its truth
        or its fit: no latent block for nar, and the rate exponent s for amnar."""
        return estimate.DesignSpec(
            model, 0 if model == "nar" else k, s=self.s if model == "amnar" else None
        )


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


# The results CSV holds the ReplicationResult fields in order.
_RESULT_FIELDS = [f.name for f in fields(ReplicationResult)]
RESULT_COLUMNS = [name.upper() if name in ("n", "t", "k") else name for name in _RESULT_FIELDS]


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
# draw and recursion the simulation splits in two again), and forecast-time
# covariates.
STAGES = ("latents", "graph", "panel", "z_next")


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
    row_sums = network.hollow_row_sums(degrees, m, block)
    max_deg = n * rho * row_sums.max() / row_sums.mean()
    return cls(block, memberships, degrees, max_deg)


def _planted_lsm_state(cell: Cell, config: ExperimentConfig, rng: np.random.Generator) -> lsm.LsmState:
    n, k = cell.n, cell.k
    rho = config.rho_for(n)
    q = 0.5 * rng.standard_normal((n, k))
    base = 0.5 * math.log(rho / (1.0 - rho))
    v = base + 0.3 * rng.standard_normal(n)
    return lsm.project_constraints(lsm.LsmState(q, v))


@dataclass
class CellData:
    """One replication's data draw plus the truth needed for scoring:
    ``target`` is the true noise-free forecast that every fit of the draw is
    scored against. The graph carries its normalized Laplacian, which the
    simulation, the target and the fits share."""

    graph: network.Graph
    panel: process.Panel
    params: object
    latent_true: np.ndarray | None
    truth_spec: estimate.DesignSpec
    mu_true: np.ndarray
    r_true: float | None
    z_next: np.ndarray
    target: np.ndarray


def simulate_cell_data(cell: Cell, config: ExperimentConfig, seed: int) -> CellData:
    """Draw the graph, truth latents, panel, and forecast-time covariates,
    and build the true one-step forecast from them.

    Each stage draws from its own stream (:func:`stage_rng`), so the draw
    depends only on the data coordinates (gen, truth, N, T, K) and the
    seed, never on the fit.
    """
    cov = config.cov_spec()
    params = config.truth_params(cell.truth, cell.k)
    amnar = cell.truth == "amnar"
    if amnar:
        state_true = _planted_lsm_state(cell, config, stage_rng(seed, "latents"))
        graph = lsm.sample_lsm_graph(state_true, stage_rng(seed, "graph"))
        latent_true = state_true.x()
        panel = process.simulate_amnar(
            params, graph, latent_true, cov, cell.t, stage_rng(seed, "panel")
        )
    else:
        p = network.ConnectionOperator(
            _make_generator_spec(cell, config, stage_rng(seed, "latents"))
        )
        graph = network.sample_graph(p, stage_rng(seed, "graph"))
        latent_true = network.embed_symmetric(p, cell.k).vectors if cell.truth == "enar" else None
        panel = process.simulate_enar(
            params, graph,
            latent_true if latent_true is not None else np.zeros((cell.n, 0)),
            cov, cell.t, stage_rng(seed, "panel"),
        )
    # a nar truth's beta is empty and an amnar truth's is [beta1 | beta2]
    truth_spec = config.design_spec(cell.truth, cell.k)
    mu_true = np.concatenate([params.beta, [params.alpha, params.theta], params.gamma])
    r_true = process.rate_multiplier(cell.n, cell.t, config.s) if amnar else None
    z_next = stage_rng(seed, "z_next").standard_normal((cell.n, cov.p)) * np.sqrt(cov.variances)
    w_true = estimate.design_rows(
        truth_spec, graph.laplacian, latent_true, panel.y[:, -1:], z_next[:, None, :], r_true
    )
    return CellData(
        graph=graph, panel=panel, params=params, latent_true=latent_true,
        truth_spec=truth_spec, mu_true=mu_true, r_true=r_true, z_next=z_next,
        target=w_true @ mu_true,
    )


def run_replication(
    cell: Cell,
    rep_index: int,
    config: ExperimentConfig,
    draw: CellData | Exception | None = None,
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
            draw = simulate_cell_data(cell, config, seed)
        if isinstance(draw, Exception):
            raise draw
        _fit_and_score(cell, config, draw, out)
    except Exception as exc:  # per-row capture keeps the grid alive
        out.status = type(exc).__name__
    out.wall_ms = (time.perf_counter() - started) * 1000.0
    return out


def _fit_and_score(
    cell: Cell, config: ExperimentConfig, data: CellData, out: ReplicationResult
) -> None:
    graph, panel, params = data.graph, data.panel, data.params

    # fit stage
    if config.oracle_latents and cell.fit == cell.truth and cell.fit != "nar":
        fit = estimate.fit_with_latents(panel, graph, data.latent_true, data.truth_spec)
    else:
        fit = estimate.fit_model(panel, graph, config.design_spec(cell.fit, cell.k))

    out.alpha_hat = fit.coef("alpha")
    out.theta_hat = fit.coef("theta")
    out.sigma2_hat = fit.sigma2_hat
    out.aic = fit.aic
    out.bic = fit.bic
    if params.alpha != 0:
        out.rmse_alpha = abs(out.alpha_hat - params.alpha) / abs(params.alpha)
    if params.theta != 0:
        out.rmse_theta = abs(out.theta_hat - params.theta) / abs(params.theta)
    out.rmse_beta = _beta_error(cell, params, fit, data.latent_true)

    y_hat = estimate.predict_one_step(fit, graph, panel.y[:, -1], data.z_next)
    denom = float(np.linalg.norm(data.target))
    if denom > 0:
        out.rmsp = float(np.linalg.norm(y_hat - data.target)) / denom


def _beta_error(cell: Cell, params, fit, latent_true) -> float:
    """Relative latent-effect error after aligning the first K columns of
    the fit's latent block to the truth's; amnar's additive effect beta2
    needs no alignment. Undefined combinations give NaN."""
    if cell.fit == "nar" or cell.fit != cell.truth or latent_true is None:
        return math.nan
    k, beta_true = cell.k, params.beta
    if np.linalg.norm(beta_true) == 0:
        return math.nan
    h, _ = network.procrustes_align(fit.latent[:, :k], latent_true[:, :k])
    target = np.concatenate([h.T @ beta_true[:k], beta_true[k:]])
    beta_hat = fit.mu_hat[: fit.spec.latent_cols]
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
        draw = simulate_cell_data(cells[0], config, seed)
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
         for name in _RESULT_FIELDS]
        for r in results
    ))


_GROUP_FIELDS = {"n", "t", "k", "gen", "truth", "fit", "rep", "seed"}


def group_fields(group_by: list[str]) -> list[str]:
    """The result field each ``group_by`` name stands for, in any case."""
    bad = [name for name in group_by if name.lower() not in _GROUP_FIELDS]
    if bad:
        raise DataError(f"cannot group by {bad[0]!r}")
    return [name.lower() for name in group_by]


def _moments(values: np.ndarray) -> list[dict]:
    """Count, mean, sd, median and quartiles of each row of ``values``, whose
    rows hold one or more finite values each: one call of each reduction
    for all the rows."""
    q1, med, q3 = np.percentile(values, [25, 50, 75], axis=1)
    count = values.shape[1]
    sd = values.std(axis=1, ddof=1) if count > 1 else np.zeros(len(values))
    return [dict(count=count, mean=float(m), sd=float(s), median=float(md), q1=float(a),
                 q3=float(b))
            for m, s, md, a, b in zip(values.mean(axis=1), sd, med, q1, q3)]


def summarize(results: list[ReplicationResult], group_by: list[str]) -> list[dict]:
    """Per-group distribution summary of every metric, long format.

    Each output row holds one (group, metric) pair with count, mean, sd,
    median, and quartiles over the finite values; a ``failure_rate`` metric
    reports the share of non-ok rows per group.
    """
    if not results:
        raise EmptyGroup("no results to summarize")
    fields = group_fields(group_by)
    groups: dict[tuple, list[ReplicationResult]] = {}
    for r in results:
        groups.setdefault(tuple(getattr(r, f) for f in fields), []).append(r)

    empty = dict(count=0, mean=math.nan, sd=math.nan, median=math.nan, q1=math.nan, q3=math.nan)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        members = groups[key]
        base = dict(zip(group_by, key))
        values = np.array([[getattr(r, m) for r in members] for m in METRIC_COLUMNS], dtype=float)
        finite = np.isfinite(values)
        whole = finite.all(axis=1)  # these metrics share one reduction each
        stats = dict(zip(np.flatnonzero(whole), _moments(values[whole])))
        for i in np.flatnonzero(~whole):
            vals = values[i, finite[i]]
            stats[i] = _moments(vals[None]).pop() if vals.size else empty
        rows.extend(dict(base, metric=metric, **stats[i])
                    for i, metric in enumerate(METRIC_COLUMNS))
        n_fail = sum(1 for r in members if r.status != "ok")
        rows.append(dict(base, metric="failure_rate", count=len(members),
                         mean=n_fail / len(members), sd=0.0,
                         median=math.nan, q1=math.nan, q3=math.nan))
    return rows


def summary_to_csv(rows: list[dict], group_by: list[str], path: str) -> None:
    cols = list(group_by) + ["metric", "count", "mean", "sd", "median", "q1", "q3"]
    write_table(path, cols, ([row[c] for c in cols] for row in rows))

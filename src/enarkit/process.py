"""Networked autoregressive processes: parameters, stationary law, simulation.

The response recursion is

    y_{t+1} = alpha * y_t + theta * L y_t + (latent effect) + Z_t gamma + eps_{t+1}

with L the symmetric normalized Laplacian of the observed graph. When
|alpha| + |theta| = rho < 1 the transition matrix G = alpha*I + theta*L is
symmetric with norm at most rho, and the process has a unique strictly
stationary solution with the moving-average form
y = sum_j G^j (b + eps_j) for b = latent effect and eps_j ~ N(0, cI),
c = sigma^2 + gamma' Sigma_z gamma. In closed form the mean solves
(I - G) phi = b and the lag-0 covariance solves Gamma = G Gamma G' + c I;
``stationary_moments`` gives both from one eigendecomposition
G = V diag(g) V': phi = V ((V' b) / (1 - g)) and
Gamma(0) = V diag(c / (1 - g^2)) V'. The simulation applies G only as a
product with the graph's sparse Laplacian, O(N + E) each. It draws its
start from the first J = ceil(log(1e-17) / log rho) terms of the series
while J <= N, where J such products cost no more than one O(N^3)
eigendecomposition; for a longer series (rho near 1) it takes the closed
form, on one BLAS thread.

The latent effect is U beta for the embedding model and r X beta for the
additive+multiplicative model, where r = N^{-s} T^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from . import blas
from .csvio import CHUNK_LINES, Rows, parse_lines, read_table, repeated_rows, row_of, write_table
from .errors import DataError, DimensionMismatch, NotStationary
from .network import Graph


@dataclass
class CovariateSpec:
    """Diagonal covariance of the iid Gaussian covariates; their dimension
    ``p`` is the number of variances."""

    variances: np.ndarray

    def __post_init__(self):
        self.variances = np.asarray(self.variances, dtype=float).reshape(-1)
        if np.any(self.variances <= 0):
            raise DataError("covariate variances must be strictly positive")

    @property
    def p(self) -> int:
        return self.variances.size

    def quad_form(self, gamma: np.ndarray) -> float:
        """gamma' Sigma_z gamma."""
        return float(np.sum(self.variances * np.asarray(gamma) ** 2))


@dataclass
class EnarParams:
    """Momentum, peer, latent-position, and covariate effects with noise sd."""

    alpha: float
    theta: float
    beta: np.ndarray
    gamma: np.ndarray
    sigma: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).reshape(-1)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        if self.sigma < 0:
            raise DataError("sigma must be nonnegative")

    @property
    def k(self) -> int:
        return self.beta.size


@dataclass
class AmnarParams:
    """Effects for the additive+multiplicative latent model.

    beta1 weights the K multiplicative positions, beta2 the additive degree
    effect; both enter through columns scaled by r = N^{-s} T^{-1/2}.
    """

    alpha: float
    theta: float
    beta1: np.ndarray
    beta2: float
    gamma: np.ndarray
    sigma: float
    s: float

    def __post_init__(self):
        self.beta1 = np.asarray(self.beta1, dtype=float).reshape(-1)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        if not 0.0 < self.s < 0.5:
            raise DataError(f"s = {self.s} must lie in (0, 1/2)")
        if self.sigma < 0:
            raise DataError("sigma must be nonnegative")

    @property
    def k(self) -> int:
        return self.beta1.size

    @property
    def beta(self) -> np.ndarray:
        return np.concatenate([self.beta1, [self.beta2]])


def rate_multiplier(n: int, t: int, s: float) -> float:
    """Latent-column scale r = N^{-s} T^{-1/2}."""
    return float(n ** (-s) / math.sqrt(t))


@dataclass
class Panel:
    """Responses y (N x (T+1), column t holds y_t) and covariates z
    (N x T x p, slice t holds Z_t feeding the transition to t+1).

    ``phi`` is the stationary mean of the process a simulator drew the
    panel from; it is None for panels built or read from data.
    """

    y: np.ndarray
    z: np.ndarray
    phi: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.y.ndim != 2 or self.z.ndim != 3:
            raise DimensionMismatch("y must be N x (T+1) and z must be N x T x p")
        if self.z.shape[0] != self.y.shape[0] or self.z.shape[1] != self.y.shape[1] - 1:
            raise DimensionMismatch(
                f"incoherent panel dims: y {self.y.shape}, z {self.z.shape}"
            )

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def t(self) -> int:
        return self.y.shape[1] - 1

    @property
    def p(self) -> int:
        return self.z.shape[2]


@dataclass
class StationaryMoments:
    """Stationary law held as the eigendecomposition G = V diag(g_eig) V'
    of the transition matrix.

    ``eigvecs`` holds the orthonormal eigenvectors V and ``g_eig`` the
    eigenvalues; Gamma(0) and the autocovariances are built from them on
    demand (``gamma0``, :func:`autocov`). The simulation uses this record
    only when its start series would be longer than N terms. ``iterations``
    is always 0, since no iteration runs; the field stays so that records
    which report it keep their schema.
    """

    phi: np.ndarray
    c: float
    eigvecs: np.ndarray
    g_eig: np.ndarray
    iterations: int = field(default=0)

    @property
    def stationary_var(self) -> np.ndarray:
        """Eigenvalues c / (1 - g_eig^2) of Gamma(0)."""
        return self.c / (1.0 - self.g_eig**2)

    @property
    def gamma0(self) -> np.ndarray:
        """Lag-0 covariance V diag(c / (1 - g_eig^2)) V'."""
        return autocov(self, 0)


def check_stationarity(alpha: float, theta: float) -> bool:
    """True iff |alpha| + |theta| < 1."""
    return abs(alpha) + abs(theta) < 1.0


def innovation_variance(sigma: float, gamma, cov_spec: CovariateSpec) -> float:
    """c = sigma^2 + gamma' Sigma_z gamma, or a DataError when it is not finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            c = sigma**2 + cov_spec.quad_form(gamma)
    except OverflowError:  # the square of a float or an int beyond the double range
        c = math.inf
    if not math.isfinite(c):
        raise DataError("the innovation variance sigma^2 + gamma' Sigma_z gamma is not "
                        "finite: lower 'sigma', 'gamma' or 'cov_variances'")
    return c


def _checked_law(
    graph: Graph,
    latent_effect: np.ndarray,
    params: EnarParams | AmnarParams,
    cov_spec: CovariateSpec,
) -> tuple[np.ndarray, float]:
    """The latent effect b as a checked (N,) vector and the innovation
    variance c = sigma^2 + gamma' Sigma_z gamma of a stationary process."""
    if not check_stationarity(params.alpha, params.theta):
        raise NotStationary(f"|{params.alpha}| + |{params.theta}| >= 1")
    latent_effect = np.asarray(latent_effect, dtype=float).reshape(-1)
    if latent_effect.shape != (graph.n,):
        raise DimensionMismatch(
            f"latent effect has shape {latent_effect.shape}, expected ({graph.n},)"
        )
    return latent_effect, innovation_variance(params.sigma, params.gamma, cov_spec)


def stationary_moments(
    graph: Graph,
    latent_effect: np.ndarray,
    params: EnarParams | AmnarParams,
    cov_spec: CovariateSpec,
) -> StationaryMoments:
    """Stationary mean and lag-0 covariance of the process on ``graph``.

    One symmetric eigendecomposition G = V diag(g) V' of the transition
    matrix, whose eigenvectors are those of the Laplacian, gives the mean
    phi = V ((V' b) / (1 - g)) for b = ``latent_effect`` and the covariance
    Gamma(0) = V diag(c / (1 - g^2)) V', which is built on demand.
    """
    latent_effect, c = _checked_law(graph, latent_effect, params, cov_spec)
    # dense G = alpha I + theta L: an isolated node's row is a plain AR(1)
    g = graph.laplacian.toarray()
    g *= params.theta
    g[np.diag_indices(graph.n)] += params.alpha
    g_eig, v = np.linalg.eigh(g)
    phi = v @ ((v.T @ latent_effect) / (1.0 - g_eig))
    return StationaryMoments(phi=phi, c=c, eigvecs=v, g_eig=g_eig)


def autocov(m: StationaryMoments, h: int) -> np.ndarray:
    """Lag-h autocovariance G^|h| Gamma(0) = V diag(g^|h| c / (1 - g^2)) V'.

    G and Gamma(0) are symmetric and commute, so Gamma(-h) = Gamma(h)'
    = Gamma(h).
    """
    return (m.eigvecs * (m.g_eig ** abs(h) * m.stationary_var)) @ m.eigvecs.T


def series_terms(alpha: float, theta: float) -> int:
    """Terms J = ceil(log(1e-17) / log rho) of the moving-average series,
    rho = |alpha| + |theta|: the first neglected term is below 1e-17 of the
    first, and the start draw's covariance is off by at most c rho^{2J}."""
    rho = abs(alpha) + abs(theta)
    return 1 if rho == 0.0 else max(1, math.ceil(math.log(1e-17) / math.log(rho)))


def _simulate(
    graph: Graph,
    latent_effect: np.ndarray,
    params: EnarParams | AmnarParams,
    cov_spec: CovariateSpec,
    t_len: int,
    rng: np.random.Generator,
) -> Panel:
    """The start draw and the recursion each take a child of ``rng``
    (``rng.spawn``), so the path of the start draw never moves the
    recursion's noise and covariates."""
    if t_len < 1:
        raise DimensionMismatch("t_len must be >= 1")
    b, c = _checked_law(graph, latent_effect, params, cov_spec)
    n, p = graph.n, cov_spec.p
    alpha, theta, lap = params.alpha, params.theta, graph.laplacian
    start_rng, step_rng = rng.spawn(2)

    def apply_g(v: np.ndarray) -> np.ndarray:
        return alpha * v + theta * (lap @ v)

    n_terms = series_terms(alpha, theta)
    if n_terms <= n:
        # Horner steps x <- G x + b and x <- G x + eps_j give the mean
        # phi = sum_j G^j b beside the noise sum_j G^j eps_j of the start
        # draw. Two sparse products with L cost less than one with the
        # N x 2 block they form.
        sd_start = math.sqrt(c)
        phi, noise = b, sd_start * start_rng.standard_normal(n)
        for _ in range(n_terms - 1):
            phi = apply_g(phi) + b
            noise = apply_g(noise) + sd_start * start_rng.standard_normal(n)
    else:
        # J grows without bound as rho -> 1; past N terms the start takes
        # one O(N^3) eigendecomposition, whose cost does not depend on rho:
        # y_0 = phi + V diag(sqrt(c / (1 - g^2))) xi. With a sparse L the
        # rule is conservative: measured on one thread, both paths cost the
        # same near J = N at N=300, and at J = 2-4 N for N from 1000 to
        # 3000; moving it would change the start draws at high rho. One
        # BLAS thread keeps the basis, and so the draw, the same under any
        # thread count.
        with blas.one_thread():
            m = stationary_moments(graph, b, params, cov_spec)
            noise = m.eigvecs @ (np.sqrt(m.stationary_var) * start_rng.standard_normal(n))
        phi = m.phi

    sd = np.sqrt(cov_spec.variances)
    y = np.empty((n, t_len + 1))
    z = np.empty((n, t_len, p))
    y[:, 0] = y_cur = phi + noise
    for t in range(t_len):
        z[:, t, :] = step_rng.standard_normal((n, p)) * sd
        eps = params.sigma * step_rng.standard_normal(n)
        y_cur = apply_g(y_cur) + b + z[:, t, :] @ params.gamma + eps
        y[:, t + 1] = y_cur
    return Panel(y=y, z=z, phi=phi)


def simulate_enar(
    params: EnarParams,
    graph: Graph,
    embedding_truth: np.ndarray,
    cov_spec: CovariateSpec,
    t_len: int,
    rng: np.random.Generator,
) -> Panel:
    """Simulate from the embedding model with latent effect U beta.

    ``embedding_truth`` holds the population eigenvectors (N x K). Starts
    from a stationary draw: the moving-average series cut after
    :func:`series_terms` terms, or the closed-form law of
    :func:`stationary_moments` where that series is longer than N.
    """
    u = np.atleast_2d(np.asarray(embedding_truth, dtype=float))
    if u.shape[0] != graph.n or u.shape[1] != params.k:
        raise DimensionMismatch(
            f"embedding shape {u.shape} incompatible with N={graph.n}, K={params.k}"
        )
    latent_effect = u @ params.beta if params.k else np.zeros(graph.n)
    return _simulate(graph, latent_effect, params, cov_spec, t_len, rng)


def simulate_amnar(
    params: AmnarParams,
    graph: Graph,
    latent_truth: np.ndarray,
    cov_spec: CovariateSpec,
    t_len: int,
    rng: np.random.Generator,
) -> Panel:
    """Simulate with latent effect r [Q | v] (beta1, beta2), r = N^{-s} T^{-1/2}."""
    x = np.atleast_2d(np.asarray(latent_truth, dtype=float))
    if x.shape != (graph.n, params.k + 1):
        raise DimensionMismatch(
            f"latent truth shape {x.shape}, expected ({graph.n}, {params.k + 1})"
        )
    r = rate_multiplier(graph.n, t_len, params.s)
    latent_effect = r * (x @ params.beta)
    return _simulate(graph, latent_effect, params, cov_spec, t_len, rng)


def write_panel_csv(panel: Panel, path: str) -> None:
    """Long-format panel: ``node,t,y,z1,...,zp``; the final time carries no
    covariates so those fields are left empty. Written one node at a time
    by :func:`~enarkit.csvio.write_table`, so floats round-trip exactly."""

    def rows():
        # one node at a time: a whole-panel tolist() would hold every cell
        # as a Python float at once
        for i in range(panel.n):
            y = panel.y[i].tolist()
            yield from zip(repeat(i), range(panel.t), y, *panel.z[i].T.tolist())
            yield (i, panel.t, y[-1], *[""] * panel.p)

    write_table(path, ["node", "t", "y"] + [f"z{j + 1}" for j in range(panel.p)], rows())


_PANEL_KEYS = [("node", np.int64), ("t", np.int64), ("y", np.float64)]
_EMPTY_LAST = (",\r\n", ",\n", ",\r", ",")  # a last field left empty, and the line end


def read_panel_csv(path: str) -> Panel:
    """Exact inverse of :func:`write_panel_csv`.

    Rows may come in any order, with LF or CRLF line ends and blank lines
    between them. Every (node, t) from 0 up to the largest node and time
    must appear exactly once, and every row before the final time must
    carry ``p`` covariates; a violation raises :class:`DataError` naming
    the row, or the node and time.
    """
    with read_table(path, ["node", "t", "y"]) as (header, chunks):
        p = len(header) - 3
        record = _PANEL_KEYS + [("z", np.float64, (p,))]
        rows = Rows(record + [("has_z", bool)])
        for chunk in chunks:
            lines = chunk.lines
            block = rows.add(len(lines))
            # a line whose last field is empty has no covariates: the final
            # time's, which are never read, or a gap reported below
            has_z = block["has_z"]
            has_z[:] = [not line.endswith(_EMPTY_LAST) for line in lines] if p else False
            full, ok = parse_lines(list(compress(lines, has_z)), record)
            keys, keys_ok = parse_lines(list(compress(lines, ~has_z)), _PANEL_KEYS)
            if ok.all() and keys_ok.all():
                block[["node", "t", "y", "z"]][has_z] = full
                block[["node", "t", "y"]][~has_z] = keys
            else:  # raise for the first key that does not parse; mark bad covariates
                block[["node", "t", "y"]] = chunk.load(_PANEL_KEYS)
                block["z"][has_z] = full["z"]
                has_z[np.flatnonzero(has_z)] = ok
    data = rows.array()
    node, t = data["node"], data["t"]
    n, t_len = _panel_dims(path, node, t)
    width = t_len + 1
    y = np.empty(n * width)
    y[node * width + t] = data["y"]  # row-major in the N x (T+1) response matrix
    z = np.empty((n * t_len, p))
    if p and t_len:
        # in blocks, to bound the copies that fancy indexing makes
        for a in range(0, data.size, CHUNK_LINES):
            block = data[a : a + CHUNK_LINES]
            before = np.flatnonzero(block["t"] < t_len)
            gaps = before[~block["has_z"][before]]
            if gaps.size:
                j = a + gaps[0]
                raise DataError(
                    f"{row_of(path, j)}: covariates missing or malformed at "
                    f"node {node[j]}, t {t[j]}"
                )
            block = block[before]
            z[block["node"] * t_len + block["t"]] = block["z"]
    return Panel(y=y.reshape(n, width), z=z.reshape(n, t_len, p))


def _panel_dims(path: str, node: np.ndarray, t: np.ndarray) -> tuple[int, int]:
    """(N, T) of a panel whose data lines hold ``node`` and ``t``, checking
    that every (node, t) up to them appears exactly once; a violation raises
    :class:`DataError` naming the row, or the node and time."""
    m = node.size
    if not m:
        raise DataError(f"{path}: empty panel")
    # a complete panel of m rows has every node id and time below m
    outside = np.flatnonzero((node < 0) | (t < 0) | (node >= m) | (t >= m))
    if outside.size:
        j = outside[0]
        raise DataError(
            f"{row_of(path, j)}: node {node[j]}, t {t[j]} outside 0..{m - 1} "
            f"for a panel of {m} rows"
        )
    n, t_len = int(node.max()) + 1, int(t.max())
    width = t_len + 1
    slot = node * width + t
    # slots from m up cannot all be filled by m rows: one shared overflow
    # bin keeps the count at m + 1 entries whatever the ids
    counts = np.bincount(np.minimum(slot, m), minlength=m + 1)
    if counts[:m].max(initial=0) > 1:
        j = repeated_rows(slot)[0]
        raise DataError(f"{row_of(path, j)}: duplicate (node={node[j]}, t={t[j]})")
    empty = np.flatnonzero(counts[: min(n * width, m)] == 0)
    if empty.size or n * width > m:
        i, s = divmod(int(empty[0]) if empty.size else m, width)
        raise DataError(f"{path}: missing row for node {i}, t {s}")
    return n, t_len

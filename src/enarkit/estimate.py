"""Design construction, least-squares fitting, inference, and prediction.

Each observation (node i, time t) contributes one design row; stacking all
T transitions gives an NT x d regression, solved from the Cholesky factor
of the Gram matrix W'W when it is well conditioned and by pivoted QR
otherwise. The model variants share the layout

    [ latent columns | lagged own response | Laplacian-weighted lag | covariates ]

where the latent block is the spectral embedding (embedding model), the
additive+multiplicative factors scaled by r = N^{-s} T^{-1/2} (AMNAR), or
absent (plain network autoregression). The regression variant drops the lag
terms and may carry a grand-mean column.

Standard errors come from the plug-in covariance sigma2_hat * (W'W)^{-1},
and the design's condition number cond(W'W) = cond(R)^2, both from the
triangular factor R of W P = Q R: the Cholesky factor of W'W (P = I), or
the R of the pivoted QR, which makes every rank decision.
The latent-effect coordinates are identified only up to an orthogonal
rotation of the embedding, so their standard errors carry a caveat flag and
cross-run comparisons must align embeddings first.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import ndtri

from . import blas, lsm
from .atomic import atomic_write
from .errors import (
    DataError,
    DimensionMismatch,
    RankDeficient,
    ZeroDenominator,
    check_type,
)
from .network import Graph, spectral_embed
from .process import Panel, rate_multiplier

MODELS = ("nar", "enar", "amnar", "enr")


@dataclass
class DesignSpec:
    """Which regressors to build.

    ``k`` is the latent dimension (0 for plain NAR; the AMNAR latent block
    has k+1 columns). ``s`` is the AMNAR rate exponent. ``grand_mean``
    only applies to the regression variant.
    """

    model: str
    k: int = 0
    s: float | None = None
    grand_mean: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.model == "nar":
            if self.k:
                raise DataError("nar takes no latent dimension")
        elif self.k < 1:
            raise DataError(f"{self.model} requires k >= 1")
        if self.model == "amnar":
            if self.s is None or not 0.0 < self.s < 0.5:
                raise DataError("amnar requires s in (0, 1/2)")

    @property
    def latent_cols(self) -> int:
        if self.model == "nar":
            return 0
        if self.model == "amnar":
            return self.k + 1
        return self.k

    def coef_names(self, p: int) -> list[str]:
        names = [f"beta_{j + 1}" for j in range(self.latent_cols)]
        if self.model == "enr":
            if self.grand_mean:
                names.append("alpha")
        else:
            names += ["alpha", "theta"]
        names += [f"gamma_{j + 1}" for j in range(p)]
        return names


@dataclass
class Diagnostics:
    """Sample analogues of the quantities governing embedding accuracy.

    ``condition_number`` is cond(W'W) of the design (NaN without columns)
    and ``ls_solver`` the least-squares route that ran, "cholesky" or "qr".
    ``eigengap`` is the smallest retained |eigenvalue| minus the largest
    discarded one in the adjacency spectrum; ``kappa`` is
    sqrt(K N rho_hat) / eigengap with rho_hat the edge density. Both stay
    NaN unless the fit embeds the adjacency (enar, enr). Latent-MLE fields
    are populated only for the additive+multiplicative fit.
    """

    eigengap: float = math.nan
    kappa: float = math.nan
    condition_number: float = math.nan
    ls_solver: str | None = None
    lsm_loglik: float | None = None
    lsm_centering: float | None = None
    lsm_diagonality: float | None = None
    lsm_step_failed: bool | None = None
    lsm_converged: bool | None = None
    lsm_iters: int | None = None
    lsm_evals: int | None = None

    def to_dict(self) -> dict:
        """Every field in order as strict JSON, less the unset (None) ones."""
        return {key: _json_value(val) for key, val in vars(self).items() if val is not None}


@dataclass
class FitResult:
    """Least-squares estimate with plug-in covariance and fit scores: the
    one record every fit entry point returns.

    ``latent`` is the unscaled N x latent_cols block the design used (None
    for nar): the latent-effect coefficients mean something only in this
    basis, so forecasts read it from here rather than re-estimating it.
    ``diagnostics`` holds the design's condition number and whatever the
    latent stage measured.
    """

    mu_hat: np.ndarray
    sigma2_hat: float
    cov_hat: np.ndarray
    n_obs: int
    n_params: int
    loglik: float
    aic: float
    bic: float
    spec: DesignSpec | None = None
    names: list[str] = field(default_factory=list)
    r: float | None = None
    latent: np.ndarray | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_hat), 0.0, None))

    def coef(self, name: str) -> float:
        return float(self.mu_hat[self.names.index(name)])


def _json_value(v):
    """``v`` as strict JSON holds it: None, strings, bools and ints as they
    are, any other number as a float, and a float that is not finite as
    None."""
    if v is None or isinstance(v, (str, bool, int)):
        return v
    v = float(v)
    return v if math.isfinite(v) else None


def _check_latent(latent, n: int, cols: int) -> np.ndarray | None:
    if cols == 0:
        return None
    if latent is None:
        raise DimensionMismatch("model requires a latent matrix but none was given")
    latent = np.atleast_2d(np.asarray(latent, dtype=float))
    if latent.shape != (n, cols):
        raise DimensionMismatch(
            f"latent matrix has shape {latent.shape}, expected ({n}, {cols})"
        )
    return latent


def design_rows(
    spec: DesignSpec,
    laplacian: np.ndarray | None,
    latent,
    y_lag: np.ndarray,
    z: np.ndarray,
    r: float | None = None,
) -> np.ndarray:
    """Design rows for the lagged responses ``y_lag`` (N x T) and the
    covariates ``z`` (N x T x p), filled by column blocks.

    Row t*N + i holds node i at lag column t: [r latent | y | L y | z], or
    [latent | 1 | z] for the regression variant, whose grand-mean column is
    optional and whose ``laplacian`` may be None. ``laplacian`` may be a
    sparse (as ``Graph.laplacian`` is) or a dense array. ``r`` scales the
    AMNAR latent block.
    """
    n, t_len = y_lag.shape
    latent = _check_latent(latent, n, spec.latent_cols)
    if spec.model == "amnar":
        if r is None:
            raise DataError("the amnar design needs its latent scale r")
        latent = r * latent
    col, p = spec.latent_cols, z.shape[2]
    d = col + (int(spec.grand_mean) if spec.model == "enr" else 2) + p
    w = np.empty((t_len, n, d))
    if col:
        w[:, :, :col] = latent
    if spec.model != "enr":
        if np.shape(laplacian) != (n, n):
            raise DimensionMismatch(f"laplacian shape {np.shape(laplacian)} != ({n}, {n})")
        w[:, :, col] = y_lag.T
        w[:, :, col + 1] = (laplacian @ y_lag).T
    elif spec.grand_mean:
        w[:, :, col] = 1.0
    w[:, :, d - p :] = z.transpose(1, 0, 2)
    return w.reshape(t_len * n, d)


def build_design(
    panel: Panel,
    laplacian: np.ndarray | None,
    latent,
    spec: DesignSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-observation regressor rows and responses.

    Row t*N + i holds the regressors for node i's transition into time t+1;
    the response vector stacks y_1 .. y_T in the same order. The AMNAR
    latent block is multiplied by r = N^{-s} T^{-1/2} here. The regression
    variant has no peer term, so its ``laplacian`` may be None.
    """
    n, t_len = panel.n, panel.t
    r = rate_multiplier(n, t_len, spec.s) if spec.model == "amnar" else None
    if spec.model == "enr" and t_len != 1:
        raise DimensionMismatch(
            f"the regression variant expects a single transition, got T={t_len}"
        )
    w = design_rows(spec, laplacian, latent, panel.y[:, :t_len], panel.z, r)
    return w, panel.y[:, 1:].T.reshape(-1)


# The Gram route squares the condition number: its coefficients carry a
# relative error of order u cond(W'W) (u = 1.1e-16, the unit roundoff), at
# most about 1e-8 times a modest dimension factor while cond(R) = cond(W) <=
# GRAM_COND_MAX, against u cond(W) for the QR. Every pivot of a QR of W is at
# least 1/cond(W) >= 1e-4 of the leading one, six orders above the 1e-10 rank
# rule, so the route never accepts a design the QR would call rank deficient.
GRAM_COND_MAX = 1e4


def _gram_factor(w: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Upper Cholesky factor R of W'W and cond(R), or None when the
    factorization fails or cond(R) exceeds GRAM_COND_MAX."""
    try:
        r = scipy.linalg.cholesky(w.T @ w, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    cond_r = float(np.linalg.cond(r))
    return (r, cond_r) if cond_r <= GRAM_COND_MAX else None


def fit_ls(w: np.ndarray, y_resp: np.ndarray) -> FitResult:
    """Least squares from a triangular factor W P = Q R, with plug-in
    covariance sigma2_hat (W'W)^{-1} = sigma2_hat P R^{-1} R^{-T} P'.

    R is the Cholesky factor of the Gram matrix W'W (P = I, Q'y = R^{-T} W'y)
    when that factorization succeeds with cond(R) <= GRAM_COND_MAX;
    otherwise it comes from LAPACK's pivoted QR, which makes every rank
    decision: RankDeficient (with the offending column indices) when a
    pivot falls below 1e-10 of the leading one, and no silent
    pseudo-inverse. ``diagnostics.ls_solver`` names the route ("cholesky"
    or "qr"), and ``diagnostics.condition_number`` is cond(W'W) = cond(R)^2.
    The residual is y - W mu on either route, and the BLAS work runs on
    one thread (:func:`enarkit.blas.one_thread`). Raises DataError, before
    any factorization, when the design or the response holds a NaN or an
    infinite value.
    """
    w = np.asarray(w, dtype=float)
    y_resp = np.asarray(y_resp, dtype=float).reshape(-1)
    n_obs, d = w.shape
    if y_resp.shape[0] != n_obs:
        raise DimensionMismatch(f"{n_obs} rows in w but {y_resp.shape[0]} responses")
    if n_obs < d:
        raise DimensionMismatch(f"underdetermined system: {n_obs} obs, {d} columns")
    for name, arr in (("design", w), ("response", y_resp)):
        if not np.isfinite(arr).all():
            raise DataError(f"the {name} holds a NaN or an infinite value")

    # one thread: numpy's and scipy's pools alternate below, and on a tall
    # design each switch between them costs more than the work it splits
    with blas.one_thread():
        gram = _gram_factor(w) if d else None
        if gram is not None:
            r, cond_r = gram
            piv, solver = np.arange(d), "cholesky"
            qty = scipy.linalg.solve_triangular(r, w.T @ y_resp, trans="T", check_finite=False)
        else:
            solver = "qr"
            q, r, piv = scipy.linalg.qr(w, mode="economic", pivoting=True, check_finite=False)
            diag = np.abs(np.diag(r))
            if d and (diag[0] == 0.0 or np.any(diag < 1e-10 * diag[0])):
                bad = np.flatnonzero(diag < max(1e-10 * diag[0], np.finfo(float).tiny))
                raise RankDeficient(sorted(int(piv[i]) for i in bad))
            cond_r = float(np.linalg.cond(r)) if d else math.nan
            qty = q.T @ y_resp

        coef_piv = scipy.linalg.solve_triangular(r, qty)
        mu = np.empty(d)
        mu[piv] = coef_piv

        resid = y_resp - w @ mu
        rss = float(resid @ resid)
        dof = n_obs - d
        sigma2_hat = rss / dof if dof > 0 else 0.0

        r_inv = scipy.linalg.solve_triangular(r, np.eye(d)) if d else np.zeros((0, 0))
        xtx_inv = np.empty((d, d))
        xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
        cov_hat = sigma2_hat * xtx_inv
    cov_hat = (cov_hat + cov_hat.T) / 2.0

    sigma2_ml = rss / n_obs if n_obs else 0.0
    if sigma2_ml > 0:
        loglik = -0.5 * n_obs * (math.log(2.0 * math.pi * sigma2_ml) + 1.0)
    else:
        loglik = math.inf
    aic = -2.0 * loglik + 2.0 * (d + 1)
    bic = -2.0 * loglik + (d + 1) * math.log(n_obs)

    return FitResult(
        mu_hat=mu,
        sigma2_hat=sigma2_hat,
        cov_hat=cov_hat,
        n_obs=n_obs,
        n_params=d,
        loglik=loglik,
        aic=aic,
        bic=bic,
        diagnostics=Diagnostics(condition_number=cond_r**2, ls_solver=solver),
    )


def fit_with_latents(panel: Panel, graph: Graph, latent, spec: DesignSpec) -> FitResult:
    """Least-squares fit of ``spec`` on ``graph`` with the latent columns
    given; the peer term reads ``graph.laplacian`` (enr has none).

    Every fit goes through here. Returns the named fit, carrying the
    unscaled latent block as ``latent`` (None for nar), with r set for
    amnar and ``diagnostics`` holding the condition number and the
    least-squares route of :func:`fit_ls`.
    """
    lap = None if spec.model == "enr" else graph.laplacian
    latent = _check_latent(latent, panel.n, spec.latent_cols)
    fit = fit_ls(*build_design(panel, lap, latent, spec))
    fit.spec, fit.names, fit.latent = spec, spec.coef_names(panel.p), latent
    if spec.model == "amnar":
        fit.r = rate_multiplier(panel.n, panel.t, spec.s)
    return fit


def fit_embedded(panel: Panel, graph: Graph, spec: DesignSpec) -> FitResult:
    """Fit an embedding model (enar or enr) from one eigendecomposition:
    k+1 eigenpairs (k when k = N), whose first k columns are the latent
    block and whose eigenvalues give the eigengap and kappa diagnostics."""
    k = spec.k
    full = spectral_embed(graph, k + 1 if k < graph.n else k)
    fit = fit_with_latents(panel, graph, full.vectors[:, :k], spec)
    vals = np.abs(full.eigenvalues)
    diag = fit.diagnostics
    diag.eigengap = gap = float(vals[k - 1] - (vals[k] if k < vals.size else 0.0))
    diag.kappa = math.sqrt(k * graph.n * graph.density) / gap if gap > 0 else math.inf
    return fit


def fit_enar(panel: Panel, graph: Graph, k: int) -> FitResult:
    """Embed the observed graph, build the design, and fit by least squares.

    One eigendecomposition of the adjacency, with k+1 eigenpairs, gives both
    the k-dimensional embedding (``fit.latent``) and the eigengap
    diagnostics. ``k = 0`` drops the latent block entirely, which is exactly
    the plain network autoregression fit. The peer term reads
    ``graph.laplacian``.
    """
    if k >= 1:
        return fit_embedded(panel, graph, DesignSpec("enar", k))
    return fit_with_latents(panel, graph, None, DesignSpec("nar"))


def fit_amnar(
    panel: Panel, graph: Graph, k: int, s: float,
    rng: np.random.Generator | None = None, max_iters: int = lsm.MAX_ITERS,
) -> FitResult:
    """Estimate the latent-space factors by constrained MLE, then fit.

    ``fit.latent`` is the MLE's [Q | v], which the design scales by
    r = N^{-s} T^{-1/2}; ``rng`` and the iteration cap ``max_iters`` go to
    :func:`enarkit.lsm.fit_lsm`, and ``fit.diagnostics`` reports the MLE's
    state. No adjacency eigendecomposition is made, so the eigengap and
    kappa diagnostics are NaN. The peer term reads ``graph.laplacian``.
    """
    lsm_fit = lsm.fit_lsm(graph, k, rng, max_iters)
    fit = fit_with_latents(panel, graph, lsm_fit.state.x(), DesignSpec("amnar", k, s=s))
    diag = fit.diagnostics
    diag.lsm_loglik = lsm_fit.loglik_trace[-1]
    diag.lsm_centering = lsm_fit.state.centering_residual()
    diag.lsm_diagonality = lsm_fit.state.diagonality_residual()
    diag.lsm_step_failed = lsm_fit.step_failed
    diag.lsm_converged = lsm_fit.converged
    diag.lsm_iters = lsm_fit.n_iters
    diag.lsm_evals = lsm_fit.n_evals
    return fit


def predict_one_step(
    fit: FitResult, graph: Graph, y_t: np.ndarray, z_t: np.ndarray
) -> np.ndarray:
    """Noise-free point forecast W_T mu_hat for the next time step.

    The latent columns are the fit's own block ``fit.latent``, so the
    forecast uses the fitted basis and makes no eigendecomposition and no
    latent-space MLE; the peer term reads ``graph.laplacian`` (enr has
    none)."""
    if fit.spec is None:
        raise DataError("fit carries no design spec; cannot build forecast design")
    n = graph.n
    y_t = np.asarray(y_t, dtype=float).reshape(-1)
    if y_t.shape != (n,):
        raise DimensionMismatch(f"y_t must have {n} entries")
    z_t = np.asarray(z_t, dtype=float)
    if z_t.ndim == 1:
        z_t = z_t.reshape(n, -1) if z_t.size else np.zeros((n, 0))
    if z_t.shape[0] != n:
        raise DimensionMismatch(f"z_t has {z_t.shape[0]} rows, expected {n}")
    lap = None if fit.spec.model == "enr" else graph.laplacian
    w_t = design_rows(fit.spec, lap, fit.latent, y_t[:, None], z_t[:, None, :], fit.r)
    if w_t.shape[1] != fit.mu_hat.shape[0]:
        raise DimensionMismatch(
            f"design has {w_t.shape[1]} columns but fit has {fit.mu_hat.shape[0]} coefficients"
        )
    return w_t @ fit.mu_hat


def rmse_rel(b_true: np.ndarray, b_hat: np.ndarray) -> float:
    """Relative error in the l2 operator norm (Euclidean norm for vectors)."""
    b_true = np.asarray(b_true, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    if b_true.shape != b_hat.shape:
        raise DimensionMismatch(f"shapes {b_true.shape} and {b_hat.shape} differ")
    ord_ = 2 if b_true.ndim == 2 else None
    denom = np.linalg.norm(b_true, ord_)
    if denom == 0:
        raise ZeroDenominator("relative error undefined: ||b_true|| = 0")
    return float(np.linalg.norm(b_true - b_hat, ord_) / denom)


def rmsp(w_t: np.ndarray, mu_hat: np.ndarray, mu_true: np.ndarray) -> float:
    """One-step relative prediction error ||W_T (mu_hat - mu)|| / ||W_T mu||."""
    w_t = np.asarray(w_t, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float).reshape(-1)
    mu_true = np.asarray(mu_true, dtype=float).reshape(-1)
    if mu_hat.shape != mu_true.shape or w_t.shape[1] != mu_true.shape[0]:
        raise DimensionMismatch("w_t, mu_hat, mu_true dimensions are incoherent")
    denom = float(np.linalg.norm(w_t @ mu_true))
    if denom == 0:
        raise ZeroDenominator("prediction error undefined: ||W_T mu|| = 0")
    return float(np.linalg.norm(w_t @ (mu_hat - mu_true)) / denom)


def confint(fit: FitResult, index: int, level: float) -> tuple[float, float]:
    """Symmetric normal-quantile interval from the plug-in covariance."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level {level} must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    center = float(fit.mu_hat[index])
    half = z * float(fit.se[index])
    return center - half, center + half


def fit_to_json_dict(fit: FitResult) -> dict:
    """Serializable fit summary with stable key names; a latent model's
    ``latent`` block is written one row per node, in design order."""
    if fit.spec is None or not fit.names or (fit.spec.latent_cols and fit.latent is None):
        raise DataError("fit lacks spec/names/latent; refit through the model entry points")

    out = {
        "model": fit.spec.model,
        "k": fit.spec.k,
        "s": fit.spec.s,
        "r": fit.r,
        "grand_mean": fit.spec.grand_mean if fit.spec.model == "enr" else None,
        "mu_hat": {name: float(v) for name, v in zip(fit.names, fit.mu_hat)},
        "se": {name: float(v) for name, v in zip(fit.names, fit.se)},
        "sigma2_hat": float(fit.sigma2_hat),
        "n_obs": fit.n_obs,
        "n_params": fit.n_params,
        "loglik": _json_value(fit.loglik),
        "aic": _json_value(fit.aic),
        "bic": _json_value(fit.bic),
        "diagnostics": fit.diagnostics.to_dict(),
    }
    if fit.spec.latent_cols:
        out["beta_rotation_caveat"] = True
        out["latent"] = fit.latent.tolist()
    return out


def write_fit_json(fit: FitResult, path: str) -> None:
    """Write :func:`fit_to_json_dict` (atomic replace): the summary indented,
    the ``latent`` block last, one compact row per line, so that its floats
    go through the C encoder rather than the pure-Python indenting one."""
    doc = fit_to_json_dict(fit)
    latent = doc.pop("latent", None)
    text = json.dumps(doc, indent=2, allow_nan=False)
    if latent is not None:
        rows = json.dumps(latent, allow_nan=False)[1:-1].replace("], [", "],\n    [")
        text = f'{text[:-2]},\n  "latent": [\n    {rows}\n  ]\n}}'
    with atomic_write(path) as fh:
        fh.write(text + "\n")


def read_fit_json(path: str) -> FitResult:
    """Rebuild a fit (coefficients, spec and latent block) from its JSON
    form, for forecasting.

    Each field must have its JSON type: a number that is not a bool for the
    coefficients, the latent entries and the float fields, an integer that
    is not a bool for ``k`` and ``n_obs``, a bool for ``grand_mean``. A
    latent model needs ``latent``, a list of rows of ``latent_cols``
    numbers. Coefficients and standard errors are looked up by the names
    ``spec.coef_names(p)`` gives, so their keys may come in any order. A
    scalar field that is absent or null takes its default. A wrong type, a
    missing key, a missing or extra coefficient name, a coefficient or
    latent entry that is not finite, or invalid JSON raises
    :class:`DataError` naming the file.
    """
    number = (int, float)
    try:
        with open(path) as fh:
            doc = check_type(json.load(fh), (dict,), f"{path}: the fit")

        def scalar(key: str, types: tuple, default):
            value = doc.get(key)
            return default if value is None else check_type(value, types, f"{path}: key {key!r}")

        def finite(key: str, values: np.ndarray) -> np.ndarray:
            if not np.isfinite(values).all():
                raise DataError(f"{path}: key {key!r} holds a value that is not finite")
            return values

        def coefficients(key: str, names) -> np.ndarray:
            table = check_type(doc[key], (dict,), f"{path}: key {key!r}")
            if set(table) != set(names):
                raise DataError(f"{path}: key {key!r} holds {sorted(table)}, not the "
                                f"{spec.model} coefficients {names}")
            return finite(key, np.array([
                check_type(table[n], number, f"{path}: key {key!r} entry {n!r}") for n in names
            ], dtype=float))

        def latent_block(cols: int) -> np.ndarray | None:
            if not cols:
                return None
            if "latent" not in doc:
                raise DataError(f"{path}: the {spec.model} fit has no key 'latent'; refit")
            rows = check_type(doc["latent"], (list,), f"{path}: key 'latent'")
            # one pass over the types; the rows are walked only to name a bad one
            if (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {cols}
                    and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
                block = np.array(rows, dtype=float).reshape(len(rows), cols)
            else:
                block = np.empty((len(rows), cols))
                for i, row in enumerate(rows):
                    where = f"{path}: key 'latent' row {i}"
                    if len(check_type(row, (list,), where)) != cols:
                        raise DataError(f"{where} has {len(row)} entries, expected {cols}")
                    block[i] = [check_type(v, number, where) for v in row]
            return finite("latent", block)

        spec = DesignSpec(
            doc["model"],
            scalar("k", (int,), 0),
            s=scalar("s", number, None),
            grand_mean=scalar("grand_mean", (bool,), True),
        )
        # the names come from the spec, not from the file's key order
        n_coef = len(check_type(doc["mu_hat"], (dict,), f"{path}: key 'mu_hat'"))
        names = spec.coef_names(n_coef - len(spec.coef_names(0)))
        mu = coefficients("mu_hat", names)
        return FitResult(
            mu_hat=mu,
            sigma2_hat=float(scalar("sigma2_hat", number, 0.0)),
            cov_hat=np.diag(coefficients("se", names) ** 2),
            n_obs=scalar("n_obs", (int,), 0),
            n_params=mu.size,
            loglik=scalar("loglik", number, math.nan),
            aic=scalar("aic", number, math.nan),
            bic=scalar("bic", number, math.nan),
            spec=spec,
            names=names,
            r=scalar("r", number, None),
            latent=latent_block(spec.latent_cols),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed fit JSON ({exc})") from exc

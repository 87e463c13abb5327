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

``fit_model(panel, graph, spec)`` is the one fit entry point: it estimates
the latent block that ``spec.model`` names and fits through
``fit_with_latents``, which also takes a known latent block directly.
``fit_enar`` and ``fit_amnar`` are shorthands for it.

Standard errors come from the plug-in covariance sigma2_hat * (W'W)^{-1},
and the design's condition number cond(W'W) = cond(R)^2, both from the
triangular factor R of W P = Q R: the Cholesky factor of W'W (P = I), or
the R of the pivoted QR, which makes every rank decision.
The latent-effect coordinates are identified only up to an orthogonal
rotation of the embedding, so their standard errors carry a caveat flag and
cross-run comparisons must align embeddings first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import ndtri

from . import blas, lsm
from .errors import (
    NUMBER,
    DataError,
    DimensionMismatch,
    RankDeficient,
    ZeroDenominator,
    check_type,
    json_value,
    load_json,
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
        return {key: json_value(val) for key, val in vars(self).items() if val is not None}


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
    loglik: float
    aic: float
    bic: float
    spec: DesignSpec | None = None
    names: list[str] = field(default_factory=list)
    r: float | None = None
    latent: np.ndarray | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def n_params(self) -> int:
        return self.mu_hat.size

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_hat), 0.0, None))

    def coef(self, name: str) -> float:
        return float(self.mu_hat[self.names.index(name)])


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


def _gram_factor(gram: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Upper Cholesky factor R of the Gram matrix W'W and cond(R), or None
    when the factorization fails or cond(R) exceeds GRAM_COND_MAX."""
    try:
        r = scipy.linalg.cholesky(gram, check_finite=False)
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
    infinite value. Finiteness is read off the diagonal of W'W and off W'y,
    which any such value reaches (0 times infinity is NaN); only when one
    of them is not finite are W and y scanned, and a finite design whose
    squares overflow goes to the pivoted QR. A covariance that is not
    finite, as on data scaled near the ends of the double range, is a DataError.
    """
    w = np.asarray(w, dtype=float)
    y_resp = np.asarray(y_resp, dtype=float).reshape(-1)
    n_obs, d = w.shape
    if y_resp.shape[0] != n_obs:
        raise DimensionMismatch(f"{n_obs} rows in w but {y_resp.shape[0]} responses")
    if n_obs < d:
        raise DimensionMismatch(f"underdetermined system: {n_obs} obs, {d} columns")

    # one thread: numpy's and scipy's pools alternate below, and on a tall
    # design each switch between them costs more than the work it splits
    with blas.one_thread():
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            gram, wty = w.T @ w, w.T @ y_resp
        factor = None
        if d and np.isfinite(np.diagonal(gram)).all() and np.isfinite(wty).all():
            factor = _gram_factor(gram)
        else:
            for name, arr in (("design", w), ("response", y_resp)):
                if not np.isfinite(arr).all():
                    raise DataError(f"the {name} holds a NaN or an infinite value")
        if factor is not None:
            r, cond_r = factor
            piv, solver = np.arange(d), "cholesky"
            qty = scipy.linalg.solve_triangular(r, wty, trans="T", check_finite=False)
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

        with np.errstate(over="ignore", invalid="ignore"):  # cov_hat is checked below
            resid = y_resp - w @ mu
            rss = float(resid @ resid)
            dof = n_obs - d
            sigma2_hat = rss / dof if dof > 0 else 0.0

            r_inv = scipy.linalg.solve_triangular(r, np.eye(d)) if d else np.zeros((0, 0))
            xtx_inv = np.empty((d, d))
            xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
            cov_hat = sigma2_hat * xtx_inv
    cov_hat = (cov_hat + cov_hat.T) / 2.0
    if not np.isfinite(cov_hat).all():
        raise DataError("the covariance of the estimate is not finite: the data's "
                        "scale is too large or too small for double precision")

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


def fit_model(panel: Panel, graph: Graph, spec: DesignSpec) -> FitResult:
    """Two-stage fit of ``spec``: estimate the latent block it names from the
    adjacency, then least squares through :func:`fit_with_latents`.

    nar has no latent block. enar and enr take one eigendecomposition with
    k+1 eigenpairs (k when k = N), whose first k columns are the latent
    block and whose eigenvalues give the eigengap and kappa diagnostics.
    amnar takes the MLE [Q | v] of :func:`enarkit.lsm.fit_lsm`, with the
    MLE's state in ``fit.diagnostics``; no eigendecomposition is made, so
    eigengap and kappa stay NaN.
    """
    k = spec.k
    if spec.model == "nar":
        return fit_with_latents(panel, graph, None, spec)
    if spec.model == "amnar":
        mle = lsm.fit_lsm(graph, k)
        fit = fit_with_latents(panel, graph, mle.state.x(), spec)
        diag = fit.diagnostics
        diag.lsm_loglik = mle.loglik_trace[-1]
        diag.lsm_centering = mle.state.centering_residual()
        diag.lsm_diagonality = mle.state.diagonality_residual()
        diag.lsm_step_failed = mle.step_failed
        diag.lsm_converged = mle.converged
        diag.lsm_iters = mle.n_iters
        diag.lsm_evals = mle.n_evals
        return fit
    full = spectral_embed(graph, k + 1 if k < graph.n else k)
    fit = fit_with_latents(panel, graph, full.vectors[:, :k], spec)
    vals = np.abs(full.eigenvalues)
    diag = fit.diagnostics
    diag.eigengap = gap = float(vals[k - 1] - (vals[k] if k < vals.size else 0.0))
    diag.kappa = math.sqrt(k * graph.n * graph.density) / gap if gap > 0 else math.inf
    return fit


def fit_enar(panel: Panel, graph: Graph, k: int) -> FitResult:
    """:func:`fit_model` of enar with dimension ``k``, or of nar at k = 0."""
    return fit_model(panel, graph, DesignSpec("enar", k) if k else DesignSpec("nar"))


def fit_amnar(panel: Panel, graph: Graph, k: int, s: float) -> FitResult:
    """:func:`fit_model` of amnar with dimension ``k`` and rate exponent ``s``."""
    return fit_model(panel, graph, DesignSpec("amnar", k, s=s))


def predict_one_step(
    fit: FitResult, graph: Graph, y_t: np.ndarray, z_t: np.ndarray
) -> np.ndarray:
    """Noise-free point forecast W_T mu_hat for the next time step, from
    the N responses ``y_t`` and the N x p covariates ``z_t`` at the origin.

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
    if z_t.ndim != 2 or z_t.shape[0] != n:
        raise DimensionMismatch(f"z_t has shape {z_t.shape}, expected ({n}, p)")
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
        "loglik": json_value(fit.loglik),
        "aic": json_value(fit.aic),
        "bic": json_value(fit.bic),
        "diagnostics": fit.diagnostics.to_dict(),
    }
    if fit.spec.latent_cols:
        out["beta_rotation_caveat"] = True
        out["latent"] = fit.latent.tolist()
    return out


# The JSON type of each key of the fit file (see errors.check_type)
FIT_TYPES = {
    "model": (str,), "k": (int,), "s": NUMBER, "r": NUMBER, "grand_mean": (bool,),
    "mu_hat": (dict,), "se": (dict,), "sigma2_hat": NUMBER, "n_obs": (int,),
    "n_params": (int,), "loglik": NUMBER, "aic": NUMBER, "bic": NUMBER,
    "diagnostics": (dict,), "beta_rotation_caveat": (bool,), "latent": [[NUMBER]],
}


def read_fit_json(path: str) -> FitResult:
    """Rebuild a fit (coefficients, spec and latent block) from its JSON
    form, for forecasting. A key that is null or absent takes its default.

    Coefficients and standard errors are looked up by the names
    ``spec.coef_names(p)`` gives, so their keys may come in any order. A
    type other than ``FIT_TYPES`` gives (a number that is not finite
    among them), a missing key, a missing or extra coefficient name, a
    ``latent`` row that is not ``latent_cols`` long, an invalid spec, or
    invalid JSON raises :class:`DataError` naming the file.
    """
    doc = {key: value for key, value in load_json(path).items() if value is not None}

    def coefficients(key: str, names) -> np.ndarray:
        table = doc.get(key, {})
        if set(table) != set(names):
            raise DataError(f"key {key!r} holds {sorted(table)}, not the "
                            f"{spec.model} coefficients {names}")
        return np.array([check_type(table[n], NUMBER, f"key {key!r} entry {n!r}")
                         for n in names], dtype=float)

    try:
        for key, types in FIT_TYPES.items():
            if key in doc:
                check_type(doc[key], types, f"key {key!r}")
        spec = DesignSpec(doc["model"], doc.get("k", 0), s=doc.get("s"),
                          grand_mean=doc.get("grand_mean", True))
        # the names come from the spec, not from the file's key order
        names = spec.coef_names(len(doc.get("mu_hat", {})) - len(spec.coef_names(0)))
        mu = coefficients("mu_hat", names)
        cols, latent = spec.latent_cols, None
        if cols:
            if "latent" not in doc:
                raise DataError(f"the {spec.model} fit has no key 'latent'; refit")
            for i, row in enumerate(doc["latent"]):
                if len(row) != cols:
                    raise DataError(f"key 'latent' row {i} has {len(row)} entries, "
                                    f"expected {cols}")
            latent = np.array(doc["latent"], dtype=float).reshape(-1, cols)
        return FitResult(
            mu_hat=mu, sigma2_hat=float(doc.get("sigma2_hat", 0.0)),
            cov_hat=np.diag(coefficients("se", names) ** 2), n_obs=doc.get("n_obs", 0),
            loglik=doc.get("loglik", math.nan), aic=doc.get("aic", math.nan),
            bic=doc.get("bic", math.nan), spec=spec, names=names, r=doc.get("r"), latent=latent,
        )
    except DataError as exc:  # the spec's own checks included
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed fit JSON ({exc})") from exc

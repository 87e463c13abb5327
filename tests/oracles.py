"""Independent brute-force oracles the fast implementations are checked against.

Everything here favours directness over speed: explicit Kronecker inverses,
dense normal equations, pairwise Python loops, kernels over all N^2 entries
and central finite differences. None of it shares code with the library
paths it validates, except the latent-space ascents ``fit_lsm_reference``
and ``fit_lsm_fixed_step``: they run the ascent's steps through the public
projection and on whichever log-likelihood and gradient they are given, by
default the public ones, whose values the loop, dense and finite-difference
oracles check; ``select_k_dense``, which embeds its dense fold matrices
with the library's ``embed_symmetric``; ``sample_dense``, which draws
from a dense probability matrix through the library's strip sweep, whose
uniforms and edges ``sample_graph_triu`` checks; and
``connection_matrix_dense``, which forms P whole but takes the block models'
rescale and the RDPG pair check from the library, whose hollow row sums
``TestHollowRowSums`` checks against dense sums.
"""

import csv
import warnings

import numpy as np
import scipy.linalg
from scipy.special import expit

from enarkit import lsm, network
from enarkit.lsm import LsmFit, LsmState, lsm_gradient, lsm_loglik, project_constraints
from enarkit.network import embed_symmetric


def dense_transition(graph, alpha: float, theta: float) -> np.ndarray:
    """G = alpha I + theta D^{-1/2} A D^{-1/2}, entry by entry from the adjacency."""
    a = graph.adjacency.toarray()
    n = a.shape[0]
    deg = a.sum(axis=1)
    g = np.zeros((n, n))
    for i in range(n):
        g[i, i] = alpha
        for j in range(n):
            if a[i, j]:
                g[i, j] += theta * a[i, j] / np.sqrt(deg[i] * deg[j])
    return g


def kron_gamma0(g: np.ndarray, c: float) -> np.ndarray:
    """Stationary covariance from vec(Gamma) = (I - G (x) G)^{-1} vec(c I)."""
    n = g.shape[0]
    lhs = np.eye(n * n) - np.kron(g, g)
    vec = np.linalg.solve(lhs, (c * np.eye(n)).reshape(-1, order="F"))
    return vec.reshape((n, n), order="F")


def ls_dense(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Explicit normal equations (W'W)^{-1} W'y via a dense inverse."""
    return np.linalg.inv(w.T @ w) @ (w.T @ y)


def ls_pivoted_qr(w: np.ndarray, y: np.ndarray) -> dict:
    """Least squares from scipy's pivoted QR W P = Q R, with an explicit
    inverse of R: the coefficients, standard errors, residual variance and
    cond(W'W) = cond(R)^2."""
    q, r, piv = scipy.linalg.qr(w, mode="economic", pivoting=True)
    mu = np.empty(w.shape[1])
    mu[piv] = np.linalg.solve(r, q.T @ y)
    resid = y - w @ mu
    sigma2 = float(resid @ resid) / (w.shape[0] - w.shape[1])
    r_inv = np.linalg.inv(r)
    var = np.empty(w.shape[1])
    var[piv] = sigma2 * np.sum(r_inv**2, axis=1)
    return {"mu_hat": mu, "se": np.sqrt(var), "sigma2_hat": sigma2,
            "condition_number": np.linalg.cond(r) ** 2}


def lsm_loglik_loop(state: LsmState, adjacency: np.ndarray) -> float:
    """Pairwise double loop over i < j, no vectorization."""
    n = adjacency.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            chi = float(state.q[i] @ state.q[j] + state.v[i] + state.v[j])
            total += adjacency[i, j] * chi - np.logaddexp(0.0, chi)
    return total


def lsm_chi_terms(state: LsmState) -> np.ndarray:
    """Q Q' + v 1' + 1 v' summed term by term, in that order."""
    chi = state.q @ state.q.T
    chi += state.v[:, None]
    chi += state.v[None, :]
    return chi


def lsm_loglik_dense(state: LsmState, adjacency: np.ndarray) -> float:
    """Softplus form over the ``np.triu_indices`` pairs of the full chi:
    sum a_ij chi_ij - log(1 + e^chi_ij)."""
    iu = np.triu_indices(adjacency.shape[0], 1)
    c = lsm_chi_terms(state)[iu]
    return float(np.sum(adjacency[iu] * c - np.logaddexp(0.0, c)))


def lsm_gradient_dense(state: LsmState, adjacency: np.ndarray):
    """(A - expit(chi)) made hollow, times [q | 1]: the residual over all
    N^2 entries."""
    resid = adjacency - expit(lsm_chi_terms(state))
    np.fill_diagonal(resid, 0.0)
    out = resid @ np.column_stack([state.q, np.ones(state.n)])
    return out[:, :-1], out[:, -1]


def lsm_fd_gradient(state: LsmState, graph, h: float = 1e-6):
    """Central finite differences of the pairwise log-likelihood."""
    dq = np.zeros_like(state.q)
    for i in range(state.n):
        for j in range(state.k):
            plus = LsmState(state.q.copy(), state.v.copy())
            plus.q[i, j] += h
            minus = LsmState(state.q.copy(), state.v.copy())
            minus.q[i, j] -= h
            dq[i, j] = (lsm_loglik(plus, graph) - lsm_loglik(minus, graph)) / (2 * h)
    dv = np.zeros_like(state.v)
    for i in range(state.n):
        plus = LsmState(state.q.copy(), state.v.copy())
        plus.v[i] += h
        minus = LsmState(state.q.copy(), state.v.copy())
        minus.v[i] -= h
        dv[i] = (lsm_loglik(plus, graph) - lsm_loglik(minus, graph)) / (2 * h)
    return dq, dv


def _ascent(graph, k, max_iters, loglik, gradient, first_step, stop):
    """Projected gradient ascent with halving backtracking, each
    log-likelihood and gradient taken through ``loglik(state, graph)`` and
    ``gradient(state, graph)``, so chi is rebuilt for every call and no
    buffer outlives one. Starts from the projected spectral start, as
    ``fit_lsm`` does. Iteration ``it`` tries ``first_step(it, x, g)``
    first, for the iterate x = [Q | v] and the ascent direction g stacked
    the same way; the ascent stops once ``stop(trace)`` holds for the
    log-likelihood trace. Returns the fit, whose ``n_evals`` counts the
    calls of ``loglik``, and the number of rejected line-search candidates."""
    calls = 0

    def counted(state, graph):
        nonlocal calls
        calls += 1
        return loglik(state, graph)

    state = project_constraints(lsm._spectral_init(graph, k))
    ll = counted(state, graph)
    fit = LsmFit(state=state, loglik_trace=[ll])
    rejected = 0
    for it in range(max_iters):
        dq, dv = gradient(state, graph)
        step = first_step(it, state.x(), np.column_stack([dq, dv]))
        while step >= lsm.MIN_STEP:
            cand = project_constraints(LsmState(state.q + step * dq, state.v + step * dv))
            ll_cand = counted(cand, graph)
            if ll_cand > ll:
                break
            step *= lsm.BACKTRACK
            rejected += 1
        else:
            fit.step_failed = True
            fit.n_iters = it
            break
        state, ll = cand, ll_cand
        fit.loglik_trace.append(ll)
        fit.n_iters = it + 1
        if stop(fit.loglik_trace):
            fit.converged = True
            break
    fit.state = state
    fit.n_evals = calls
    return fit, rejected


def fit_lsm_reference(
    graph, k: int, max_iters: int, loglik=lsm_loglik, gradient=lsm_gradient
) -> tuple[LsmFit, int]:
    """The ascent of ``fit_lsm`` through ``loglik`` and ``gradient``, by
    default the public ``lsm_loglik`` and ``lsm_gradient``: Barzilai-Borwein
    first steps, s's / s'y on odd iterations and s'y / y'y on even ones for
    s = x_k - x_{k-1} and y = g_{k-1} - g_k, and 1/N on the first
    iteration or when s'y <= 0; the ascent stops once the gain over the last
    ``lsm.WINDOW`` accepted steps is below ``lsm.WINDOW_TOL`` times
    max(|loglik|, 1). Returns the fit and the number of rejected
    line-search candidates."""
    last = {}

    def first_step(it, x, g):
        step = 1.0 / graph.n
        if it:
            s, y = x - last["x"], last["g"] - g
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                step = float(np.vdot(s, s)) / sy if it % 2 else sy / float(np.vdot(y, y))
        last.update(x=x, g=g)
        return step

    def stop(trace):
        window = lsm.WINDOW
        return len(trace) > window and (
            trace[-1] - trace[-1 - window] < lsm.WINDOW_TOL * max(abs(trace[-1]), 1.0)
        )

    return _ascent(graph, k, max_iters, loglik, gradient, first_step, stop)


def fit_lsm_fixed_step(graph, k: int, max_iters: int) -> LsmFit:
    """The fixed-step ascent the library ran before Barzilai-Borwein steps,
    through the public kernels: every line search starts from 1/N, and the
    ascent stops once one step's gain, relative to max(|loglik|, 1), is
    below 1e-8."""

    def stop(trace):
        return (trace[-1] - trace[-2]) / max(abs(trace[-1]), 1.0) < 1e-8

    fit, _ = _ascent(
        graph, k, max_iters, lsm_loglik, lsm_gradient, lambda it, x, g: 1.0 / graph.n, stop
    )
    return fit


def connection_matrix_dense(spec) -> np.ndarray:
    """Population edge-probability matrix P implied by a generator spec, as
    a dense N x N array formed whole: the reference that
    ``network.ConnectionOperator`` applies without forming it.

    For latent positions this is rho * X X'; its first pair i < j (row-major)
    that is NaN or outside [0, 1] raises :class:`InvalidProbability`, and the
    diagonal is not checked. For block models it is Theta M B M' Theta with
    its diagonal zeroed, rescaled so the largest row sum equals the target
    maximum expected degree, then clipped to [0, 1] (a warning reports how
    many were clipped).
    """
    if isinstance(spec, network.RdpgSpec):
        p = spec.rho * (spec.x @ spec.x.T)
        network._check_pairs(p.shape[0], p[network.upper_mask(p.shape[0])], 0)
        return p
    m = spec.membership_matrix()
    theta = spec.degrees
    p = (theta[:, None] * theta[None, :]) * (m @ spec.block_matrix @ m.T)
    # expected degrees are over the hollow graph, so the diagonal carries
    # no mass before the rescale
    np.fill_diagonal(p, 0.0)
    p *= network._rescale(spec)
    n_clipped = int(np.count_nonzero(p > 1.0))
    if n_clipped:
        warnings.warn(
            f"{n_clipped} connection probabilities exceeded 1 and were clipped",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.minimum(p, 1.0) if n_clipped else p


def sample_dense(p: np.ndarray, rng):
    """The Bernoulli graph of a dense symmetric probability matrix ``p``,
    drawn by the strip sweep that ``sample_graph`` runs on an operator."""
    n = p.shape[0]
    return network._from_upper(n, *network._sweep_pairs(n, lambda r0, r1: p[r0:r1, r0:], rng))


def sample_graph_triu(p: np.ndarray, rng) -> np.ndarray:
    """Dense adjacency of the Bernoulli draw over the ``np.triu_indices``
    pairs, one uniform per pair in row-major order."""
    iu = np.triu_indices(p.shape[0], 1)
    a = np.zeros(p.shape)
    a[iu] = rng.random(iu[0].size) < p[iu]
    return a + a.T


def select_k_dense(g, k_max: int, folds: int = 5, holdout_fraction: float = 0.1, *, rng) -> int:
    """``select_k`` on a dense copy of the adjacency: each fold hides the
    ``np.triu_indices`` pairs whose uniform, from one ``rng.random`` call
    over all pairs, falls below ``holdout_fraction``, zeroes them in a dense
    N x N array, symmetrizes and scales it, and embeds it with the
    library's ``embed_symmetric``."""
    a = g.adjacency.toarray()
    iu = np.triu_indices(g.n, k=1)
    errors = np.zeros((folds, k_max))
    for f in range(folds):
        hidden = rng.random(iu[0].size) < holdout_fraction
        a_obs = np.zeros_like(a)
        a_obs[iu[0][~hidden], iu[1][~hidden]] = a[iu[0][~hidden], iu[1][~hidden]]
        a_obs = (a_obs + a_obs.T) / (1.0 - holdout_fraction)
        emb = embed_symmetric(a_obs, k_max)
        truth = a[iu[0][hidden], iu[1][hidden]]
        pred = np.zeros(truth.size)
        for k in range(k_max):
            uk = emb.vectors[:, k]
            pred += emb.eigenvalues[k] * uk[iu[0][hidden]] * uk[iu[1][hidden]]
            errors[f, k] = np.sum((truth - pred) ** 2)
    return int(np.argmin(errors.mean(axis=0))) + 1


def write_panel_csv_loop(panel, path) -> None:
    """Panel CSV one cell at a time through ``csv.writer``: the reference
    format the library's panel writer must reproduce byte for byte."""
    p = panel.p
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "t", "y"] + [f"z{j + 1}" for j in range(p)])
        for i in range(panel.n):
            for t in range(panel.t + 1):
                row = [i, t, repr(float(panel.y[i, t]))]
                if t < panel.t:
                    row += [repr(float(v)) for v in panel.z[i, t, :]]
                else:
                    row += [""] * p
                writer.writerow(row)


def write_edge_csv_loop(graph, path) -> None:
    """Edge list one pair at a time through ``csv.writer``: the reference
    format the library's edge writer must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if graph.adjacency[i, j] > 0:
                    writer.writerow([i, j])


def write_forecast_csv_loop(y_hat, actual, path) -> None:
    """Forecast CSV ``node,y_hat[,y_actual]`` one node at a time through
    ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "y_hat"] + (["y_actual"] if actual is not None else []))
        for i in range(len(y_hat)):
            row = [i, repr(float(y_hat[i]))]
            if actual is not None:
                row.append(repr(float(actual[i])))
            writer.writerow(row)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_results_csv_loop(results, columns, path) -> None:
    """Results CSV (timing kept) one replication at a time through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in results:
            writer.writerow([
                r.gen, r.truth, r.fit, r.n, r.t, r.k, r.rep, r.seed,
                _fmt(r.alpha_hat), _fmt(r.theta_hat), _fmt(r.rmse_alpha),
                _fmt(r.rmse_theta), _fmt(r.rmse_beta), _fmt(r.rmsp),
                _fmt(r.sigma2_hat), _fmt(r.aic), _fmt(r.bic), r.status, _fmt(r.wall_ms),
            ])


def write_summary_csv_loop(rows, group_by, path) -> None:
    """Summary CSV one (group, metric) row at a time through ``csv.writer``."""
    cols = list(group_by) + ["metric", "count", "mean", "sd", "median", "q1", "q3"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])


def magnitude_order_sorted(eigenvalues) -> np.ndarray:
    """Indices by |value| desc, then value desc, then index, from a Python
    sort on an explicit key tuple."""
    keys = sorted(
        range(len(eigenvalues)),
        key=lambda i: (-abs(eigenvalues[i]), -eigenvalues[i], i),
    )
    return np.array(keys, dtype=np.intp)


def fix_signs_loop(vectors: np.ndarray) -> np.ndarray:
    """C-ordered copy with each column negated, one at a time, when its first
    largest-magnitude entry is negative."""
    out = np.array(vectors, order="C")
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            out[:, j] = -col
    return out


def design_rows_loop(panel, laplacian, latent, spec) -> tuple[np.ndarray, np.ndarray]:
    """Design and responses of ``build_design``, entry by entry: row t*N + i
    is [r latent_i | y_it | sum_j L_ij y_jt | z_it] for the lag models and
    [latent_i | 1 | z_it] (grand mean optional) for the regression variant,
    with r = N^{-s} T^{-1/2} for amnar and 1 otherwise."""
    n, t_len, p = panel.n, panel.t, panel.p
    cols = 0 if latent is None else latent.shape[1]
    r = n ** (-spec.s) / np.sqrt(t_len) if spec.model == "amnar" else 1.0
    rows, resp = [], []
    for t in range(t_len):
        for i in range(n):
            row = [r * latent[i, c] for c in range(cols)]
            if spec.model == "enr":
                if spec.grand_mean:
                    row.append(1.0)
            else:
                peer = 0.0
                for j in range(n):
                    peer += laplacian[i, j] * panel.y[j, t]
                row += [panel.y[i, t], peer]
            row += [panel.z[i, t, c] for c in range(p)]
            rows.append(row)
            resp.append(panel.y[i, t + 1])
    return np.array(rows, dtype=float), np.array(resp)


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_stationary_instance(rng: np.random.Generator, n_max: int = 8):
    """A small graph plus stationary coefficients for moment checks."""
    from enarkit.network import Graph

    n = int(rng.integers(2, n_max + 1))
    while True:
        a = (rng.random((n, n)) < 0.6).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        if np.all(a.sum(axis=1) > 0):
            break
    scale = rng.uniform(0.1, 0.95)
    split = rng.uniform(0.05, 0.95)
    alpha = scale * split * rng.choice([-1.0, 1.0])
    theta = scale * (1 - split) * rng.choice([-1.0, 1.0])
    return Graph(a), alpha, theta

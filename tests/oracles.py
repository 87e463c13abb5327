"""Independent brute-force oracles the fast implementations are checked against.

Everything here favours directness over speed: explicit Kronecker inverses,
dense normal equations, pairwise Python loops, and central finite
differences. None of it shares code with the library paths it validates.
"""

import csv

import numpy as np

from enarkit.lsm import LsmState, lsm_loglik


def dense_transition(graph, alpha: float, theta: float) -> np.ndarray:
    """G = alpha I + theta D^{-1/2} A D^{-1/2}, entry by entry from the adjacency."""
    a = np.asarray(graph.adjacency, dtype=float)
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


def lsm_loglik_loop(state: LsmState, adjacency: np.ndarray) -> float:
    """Pairwise double loop over i < j, no vectorization."""
    n = adjacency.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            chi = float(state.q[i] @ state.q[j] + state.v[i] + state.v[j])
            total += adjacency[i, j] * chi - np.logaddexp(0.0, chi)
    return total


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
    return Graph(n, a), alpha, theta

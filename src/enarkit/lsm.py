"""Constrained MLE of the additive+multiplicative latent space model.

The edge log-likelihood under a logistic link is

    sum_{i<j} [ a_ij * chi_ij - log(1 + exp(chi_ij)) ],
    chi = Q Q' + v 1' + 1 v',

maximized by projected gradient ascent over the identifiability set
{ Q'1 = 0, Q'Q diagonal, bounded row norms of [Q | v] }. Because the
likelihood counts each unordered pair once, the ascent directions are
R Q and R 1 for the hollow symmetric residual R = A - sigmoid(chi); the
finite-difference suite pins this convention.

One ascent iteration evaluates the log-likelihood once per line-search
candidate and takes the gradient off the accepted one, so an iteration
whose first step is accepted builds chi once. The log-likelihood keeps the
strict upper triangle c of chi and e = exp(-|c|), and the gradient reads
sigmoid(c) off them, so no N x N sigmoid is evaluated. A fit holds two
N x N buffers, chi and the strict upper triangle of sigmoid(chi), and one
boolean mask that selects the N(N-1)/2 pairs. The adjacency stays sparse;
dense copies of it live only while the pairs' entries are selected and
while the spectral start runs. ``lsm_loglik`` and ``lsm_gradient`` run the
same kernels on fresh buffers, and ``LsmState.chi`` (and so
``sample_lsm_graph``) builds chi with the same product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .csvio import Table, load_columns, repeated_rows, write_table
from .errors import DataError, DimensionMismatch, ShapeMismatch
from .network import Graph, _fix_signs, _leading_eigenpairs, sample_graph, upper_mask

# Ascent settings: at most MAX_ITERS accepted steps, each line search
# starting from a step of 1/N and shrinking by BACKTRACK down to MIN_STEP;
# the ascent stops once a step's log-likelihood gain, relative to
# max(|loglik|, 1), falls below TOL.
MAX_ITERS = 500
TOL = 1e-8
BACKTRACK = 0.5
MIN_STEP = 1e-12


@dataclass
class LsmState:
    """Multiplicative positions q (N x K) and additive effects v (N,)."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.v = np.asarray(self.v, dtype=float).reshape(-1)
        if self.q.shape[0] != self.v.shape[0]:
            raise DimensionMismatch(
                f"q has {self.q.shape[0]} rows but v has {self.v.shape[0]} entries"
            )

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def k(self) -> int:
        return self.q.shape[1]

    def x(self) -> np.ndarray:
        """The stacked factor matrix [Q | v]."""
        return np.column_stack([self.q, self.v])

    def chi(self) -> np.ndarray:
        """Latent factor matrix Q Q' + v 1' + 1 v'."""
        return _chi(self.q, self.v)

    def centering_residual(self) -> float:
        """max |column sum of q| (zero on the constraint set)."""
        return float(np.max(np.abs(self.q.sum(axis=0)))) if self.k else 0.0

    def diagonality_residual(self) -> float:
        """Largest off-diagonal of q'q relative to its trace."""
        if self.k < 2:
            return 0.0
        gram = self.q.T @ self.q
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        tr = np.trace(gram)
        return float(off / tr) if tr > 0 else float(off)


@dataclass
class LsmFit:
    """Fitted state plus the ascent trace and termination flags."""

    state: LsmState
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    step_failed: bool = False
    n_iters: int = 0


def _chi(q: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Q Q' + v 1' + 1 v' (into ``out`` when given) by one product of
    [q | v | 1] and [q | 1 | v]'."""
    ones = np.ones(v.shape[0])
    return np.matmul(np.column_stack([q, v, ones]), np.column_stack([q, ones, v]).T, out=out)


class _Kernels:
    """Log-likelihood and ascent direction of one graph over its N(N-1)/2 pairs.

    ``loglik`` builds chi into an N x N buffer with one product of [q | v | 1]
    and [q | 1 | v]', selects its strict upper triangle c through a boolean
    mask (row-major order, as ``np.triu_indices``) and keeps c and
    e = exp(-|c|) in their own buffers. ``gradient`` takes sigmoid(c) =
    where(c >= 0, 1, e) / (1 + e) off those buffers, so it reads the state
    of the last ``loglik`` call, and writes it into the strict upper
    triangle of a second N x N buffer S whose other entries stay zero. The
    hollow sigmoid matrix is S + S', so the residual products are
    A [q | 1] - (S + S') [q | 1], with A [q | 1] from the sparse adjacency
    and the degrees.
    """

    def __init__(self, graph: Graph):
        n = graph.n
        self.adjacency = graph.adjacency
        self.degrees = graph.degrees
        self.upper = upper_mask(n)
        self.a_upper = graph.adjacency.toarray()[self.upper]
        self.chi = np.empty((n, n))
        self.sigmoid = np.zeros((n, n))
        self.ones = np.ones(n)
        self.e = np.empty(self.a_upper.size)
        self.softplus = np.empty_like(self.e)
        self.terms = np.empty_like(self.e)

    def loglik(self, q: np.ndarray, v: np.ndarray) -> float:
        self.c = c = _chi(q, v, self.chi)[self.upper]
        # log(1 + e^c) = max(c, 0) + log1p(e^{-|c|}), stable for both signs;
        # the ufuncs run in the order of that formula and of a*c - softplus,
        # since another order rounds differently and moves the fit
        e = np.abs(c, out=self.e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        sp = np.log1p(e, out=self.softplus)
        np.add(np.maximum(c, 0.0, out=self.terms), sp, out=sp)
        terms = np.multiply(self.a_upper, c, out=self.terms)
        terms -= sp
        return float(np.sum(terms))

    def gradient(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, e = self.c, self.e
        self.sigmoid[self.upper] = np.where(c >= 0.0, 1.0, e) / (1.0 + e)
        q1 = np.column_stack([q, self.ones])
        s_q1 = self.sigmoid @ q1
        s_q1 += self.sigmoid.T @ q1
        return self.adjacency @ q - s_q1[:, :-1], self.degrees - s_q1[:, -1]


def lsm_loglik(state: LsmState, graph: Graph) -> float:
    """Bernoulli-logistic log-likelihood over unordered node pairs."""
    return _Kernels(graph).loglik(state.q, state.v)


def lsm_gradient(state: LsmState, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascent direction (dq, dv) of the pairwise log-likelihood."""
    kernels = _Kernels(graph)
    kernels.loglik(state.q, state.v)
    return kernels.gradient(state.q)


def project_constraints(state: LsmState, row_norm_cap: float | None = None) -> LsmState:
    """Map a state onto the identifiability set.

    Columns of q are mean-centered, then rotated by the eigenvectors of q'q
    so the Gram matrix is diagonal with a descending diagonal; rows of
    [q | v] longer than the cap, 3 sqrt(K + 1) unless given, are shrunk
    onto it (capping can re-break centering, in which case one repeat pass
    runs).
    """
    cap = 3.0 * np.sqrt(state.k + 1.0) if row_norm_cap is None else row_norm_cap

    def center_rotate(q: np.ndarray) -> np.ndarray:
        if q.shape[1] == 0:
            return q
        q = q - q.mean(axis=0)
        vals, vecs = np.linalg.eigh(q.T @ q)
        order = np.argsort(vals)[::-1]
        # sign convention keeps the projection idempotent
        return q @ _fix_signs(vecs[:, order])

    def cap_rows(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        norms = np.sqrt((q**2).sum(axis=1) + v**2)
        over = norms > cap
        if not np.any(over):
            return q, v, False
        scale = np.ones_like(norms)
        scale[over] = cap / norms[over]
        return q * scale[:, None], v * scale, True

    q, v = state.q.copy(), state.v.copy()
    q = center_rotate(q)
    q, v, capped = cap_rows(q, v)
    if capped:
        q = center_rotate(q)
        q, v, _ = cap_rows(q, v)
    return LsmState(q, v)


def _spectral_init(adjacency: np.ndarray, k: int, rng: np.random.Generator) -> LsmState:
    """Warm start from a dense adjacency: degree-matched additive effects,
    residual spectrum for q."""
    n = adjacency.shape[0]
    eps = 0.5 / max(n - 1, 1)
    p0 = np.clip(adjacency.sum(axis=1) / max(n - 1, 1), eps, 1.0 - eps)
    v0 = np.log(p0 / (1.0 - p0))
    resid = adjacency - expit(v0[:, None] + v0[None, :])
    vals, vecs = _leading_eigenpairs(resid, k, "LA")
    q0 = vecs * np.sqrt(np.clip(vals, 0.0, None))
    weak = np.sqrt(np.clip(vals, 0.0, None)) < 1e-8
    if np.any(weak):
        q0[:, weak] = 1e-3 * rng.standard_normal((n, int(weak.sum())))
    return LsmState(q0, v0)


def fit_lsm(
    graph: Graph,
    k: int,
    rng: np.random.Generator | None = None,
    max_iters: int = MAX_ITERS,
) -> LsmFit:
    """Projected gradient ascent with backtracking from a spectral start.

    Every accepted step strictly increases the pairwise log-likelihood and
    every iterate lies in the constraint set. The ascent stops after
    ``max_iters`` accepted steps, or earlier once the relative gain of a
    step falls below TOL (``converged``). When no step down to MIN_STEP
    ascends, the last feasible state is returned with ``step_failed`` set.
    ``rng`` feeds the start only when the residual spectrum is too weak to
    give every column of q.

    One iteration evaluates the log-likelihood once per line-search
    candidate, each time into the same buffers, and the gradient reads the
    sigmoid of chi off the last one: the gradient runs only after a
    candidate is accepted, and the accepted candidate is the last one built.
    The N x N arrays the ascent holds are chi and the upper-triangle
    sigmoid buffer. ``k`` above the node count raises
    :class:`ShapeMismatch`, as the spectral embedding does.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    if k > graph.n:
        raise ShapeMismatch(f"k = {k} must satisfy 1 <= k <= {graph.n}")
    if max_iters < 0:
        raise DataError("max_iters must be >= 0")
    rng = rng if rng is not None else np.random.default_rng(0)

    kernels = _Kernels(graph)
    state = project_constraints(_spectral_init(graph.adjacency.toarray(), k, rng))
    ll = kernels.loglik(state.q, state.v)
    fit = LsmFit(state=state, loglik_trace=[ll])

    for it in range(max_iters):
        dq, dv = kernels.gradient(state.q)
        step = 1.0 / graph.n
        accepted = False
        while step >= MIN_STEP:
            cand = project_constraints(LsmState(state.q + step * dq, state.v + step * dv))
            ll_cand = kernels.loglik(cand.q, cand.v)
            if ll_cand > ll:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            fit.step_failed = True
            fit.n_iters = it
            warnings.warn(
                "line search found no ascent direction; returning last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        rel_gain = (ll_cand - ll) / max(abs(ll_cand), 1.0)
        state, ll = cand, ll_cand
        fit.loglik_trace.append(ll)
        fit.n_iters = it + 1
        if rel_gain < TOL:
            fit.converged = True
            break

    fit.state = state
    return fit


def sample_lsm_graph(state: LsmState, rng: np.random.Generator) -> Graph:
    """Draw one graph with edge probabilities sigmoid(chi); isolated nodes
    are kept (no resampling), as in the benchmark's sparse regimes."""
    p = expit(state.chi())
    np.fill_diagonal(p, 0.0)
    return sample_graph(p, rng)


def write_latent_csv(state: LsmState, path: str) -> None:
    """Export the latent estimate as ``node,v,q1,...,qK`` (atomic replace)."""
    write_table(
        path, ["node", "v"] + [f"q{j + 1}" for j in range(state.k)],
        ([i, *row] for i, row in enumerate(np.column_stack([state.v, state.q]).tolist())),
    )


def read_latent_csv(path: str) -> LsmState:
    """Exact inverse of :func:`write_latent_csv`.

    Rows may come in any order, with LF or CRLF line ends and blank lines
    between them. Every node from 0 up to the largest id must appear exactly
    once; a row that does not parse or lacks a column, a negative or a
    repeated node id raises :class:`DataError` naming the row, and so does a
    missing node, naming the node.
    """
    table = Table(path)
    header = table.header
    if header is None or header[:2] != ["node", "v"]:
        raise DataError(f"{path}: expected header 'node,v,q1,...', got {header}")
    k = len(header) - 2
    lines = table.lines
    if not lines:
        raise DataError(f"{path}: empty latent file")
    rows = load_columns(
        lines, range(k + 2), np.dtype([("node", np.int64), ("vq", np.float64, (k + 1,))]),
        lambda j: f"{table.where(j)}: cannot parse {lines[j]!r}",
    )
    node, vq = rows["node"], rows["vq"]
    firsts = [bad[0] for bad in (np.flatnonzero(node < 0), repeated_rows(node)) if bad.size]
    if firsts:
        j = min(firsts)
        kind = "negative" if node[j] < 0 else "duplicate"
        raise DataError(f"{table.where(j)}: {kind} node id {node[j]}")
    m = len(lines)
    # m distinct ids are 0..m-1 unless one reaches m; ids from m up share
    # one slot, so a huge id allocates nothing
    present = np.zeros(m + 1, dtype=bool)
    present[np.minimum(node, m)] = True
    if present[m]:
        raise DataError(f"{path}: missing node {int(np.argmin(present))}")
    v, q = np.empty(m), np.empty((m, k))
    v[node], q[node] = vq[:, 0], vq[:, 1:]
    return LsmState(q, v)

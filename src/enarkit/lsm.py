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
whose first step is accepted builds chi once. The adjacency is read only
in its CSR form: the edge term is tr(Q'AQ) / 2 + d'v for the degrees d,
from the sparse product A Q in O(E K). A fit holds two N x N buffers, chi
and the strict upper triangle of sigmoid(chi), and one boolean mask that
selects the N(N-1)/2 pairs (see ``_Kernels``). ``lsm_loglik`` and
``lsm_gradient`` run the same kernels on fresh buffers, and
``sample_lsm_graph`` builds chi in strips of rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DataError, DimensionMismatch, ShapeMismatch
from .network import Graph, _fix_signs, _from_upper, _leading_eigenpairs, _sweep_pairs, upper_mask

# Settings of the ascent (see fit_lsm) and of the alternation in
# project_constraints.
MAX_ITERS = 500
WINDOW = 10
WINDOW_TOL = 1e-5
BACKTRACK = 0.5
MIN_STEP = 1e-12
CENTER_TOL = 1e-10
PROJECTION_PASSES = 100


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
    """Fitted state plus the ascent trace and termination flags.

    ``n_evals`` counts log-likelihood evaluations: the start's and one per
    line-search candidate, accepted or not."""

    state: LsmState
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    step_failed: bool = False
    n_iters: int = 0
    n_evals: int = 0


def _chi_factors(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[q | v | 1] and [q | 1 | v], whose product F G' is chi."""
    ones = np.ones(v.shape[0])
    return np.column_stack([q, v, ones]), np.column_stack([q, ones, v])


class _Kernels:
    """Log-likelihood and ascent direction of one graph over its N(N-1)/2 pairs.

    ``loglik`` builds chi into an N x N buffer with one product of [q | v | 1]
    and [q | 1 | v]', selects its strict upper triangle c through a boolean
    mask in row-major order and keeps c, e = exp(-|c|) and the CSR product
    A Q, which gives the edge term sum_{i<j} a_ij chi_ij = tr(Q'AQ) / 2 +
    d'v. ``gradient`` takes sigmoid(c) = where(c >= 0, 1, e) / (1 + e) off
    those buffers, so it reads the state of the last ``loglik`` call, and
    writes it into the strict upper triangle of a second N x N buffer S
    whose other entries stay zero. The hollow sigmoid matrix is S + S', so
    the residual products are A [q | 1] - (S + S') [q | 1], with A q kept
    from ``loglik`` and A 1 the degrees.
    """

    def __init__(self, graph: Graph):
        n = graph.n
        self.adjacency = graph.adjacency
        self.degrees = graph.degrees
        self.upper = upper_mask(n)
        self.chi = np.empty((n, n))
        self.sigmoid = np.zeros((n, n))
        self.ones = np.ones(n)
        self.e = np.empty(n * (n - 1) // 2)
        self.softplus = np.empty_like(self.e)

    def loglik(self, q: np.ndarray, v: np.ndarray) -> float:
        f, g = _chi_factors(q, v)
        self.c = c = np.matmul(f, g.T, out=self.chi)[self.upper]
        self.aq = self.adjacency @ q
        # log(1 + e^c) = max(c, 0) + log1p(e^{-|c|}), stable for both signs
        # and taken in the order of that formula, since another order rounds
        # differently and moves the fit
        e = np.abs(c, out=self.e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        sp = np.log1p(e, out=self.softplus)
        sp += np.maximum(c, 0.0)
        return 0.5 * float(np.vdot(q, self.aq)) + float(self.degrees @ v) - float(np.sum(sp))

    def gradient(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, e = self.c, self.e
        self.sigmoid[self.upper] = np.where(c >= 0.0, 1.0, e) / (1.0 + e)
        q1 = np.column_stack([q, self.ones])
        s_q1 = self.sigmoid @ q1
        s_q1 += self.sigmoid.T @ q1
        return self.aq - s_q1[:, :-1], self.degrees - s_q1[:, -1]


def lsm_loglik(state: LsmState, graph: Graph) -> float:
    """Bernoulli-logistic log-likelihood over unordered node pairs."""
    return _Kernels(graph).loglik(state.q, state.v)


def lsm_gradient(state: LsmState, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascent direction (dq, dv) of the pairwise log-likelihood."""
    kernels = _Kernels(graph)
    kernels.loglik(state.q, state.v)
    return kernels.gradient(state.q)


def project_constraints(state: LsmState) -> LsmState:
    """Map a state onto the identifiability set.

    Columns of q are mean-centered and rows of [q | v] longer than the cap,
    3 sqrt(K + 1), are shrunk onto it; capping moves the column means, so
    the two alternate until the column sums of q are within CENTER_TOL of
    zero (at most PROJECTION_PASSES passes, capping last).
    Last, q is rotated by the eigenvectors of q'q so the Gram matrix is
    diagonal with a descending diagonal; the rotation keeps both the column
    sums at zero and the row norms.
    """
    cap = 3.0 * np.sqrt(state.k + 1.0)
    x = state.x()
    q, ones = x[:, :-1], np.ones(state.n)
    col_sums = ones @ q
    for _ in range(PROJECTION_PASSES):
        q -= col_sums / state.n
        sq_norms = np.einsum("ij,ij->i", x, x)
        over = np.flatnonzero(sq_norms > cap * cap)
        if not over.size:
            break
        x[over] *= (cap / np.sqrt(sq_norms[over]))[:, None]
        col_sums = ones @ q
        if np.max(np.abs(col_sums), initial=0.0) <= CENTER_TOL:
            break
    if q.shape[1]:
        vals, vecs = np.linalg.eigh(q.T @ q)
        # sign convention keeps the projection idempotent
        q = q @ _fix_signs(vecs[:, np.argsort(vals)[::-1]])
    return LsmState(q, x[:, -1])


def _spectral_init(graph: Graph, k: int) -> LsmState:
    """Warm start: degree-matched additive effects v0, and q from the
    spectrum of the residual A - sigmoid(v0 1' + 1 v0'), built as the
    negated sigmoid plus 1 at the CSR entries. A column whose eigenvalue is
    too weak to scale it gets small normal draws from
    ``np.random.default_rng(0)``, so the start is a function of the graph
    alone."""
    n = graph.n
    eps = 0.5 / max(n - 1, 1)
    p0 = np.clip(graph.degrees / max(n - 1, 1), eps, 1.0 - eps)
    v0 = np.log(p0 / (1.0 - p0))
    resid = -expit(v0[:, None] + v0[None, :])
    resid[graph.adjacency.nonzero()] += 1.0
    vals, vecs = _leading_eigenpairs(resid, k, "LA")
    q0 = vecs * np.sqrt(np.clip(vals, 0.0, None))
    weak = np.sqrt(np.clip(vals, 0.0, None)) < 1e-8
    if np.any(weak):
        q0[:, weak] = 1e-3 * np.random.default_rng(0).standard_normal((n, int(weak.sum())))
    return LsmState(q0, v0)


def fit_lsm(graph: Graph, k: int) -> LsmFit:
    """Projected gradient ascent with backtracking from a spectral start.

    Every accepted step strictly increases the pairwise log-likelihood and
    every iterate lies in the constraint set. Each iteration's first trial
    step is a Barzilai-Borwein step on the projected iterates x = [Q | v]
    and ascent directions g: with s = x_k - x_{k-1} and y = g_{k-1} - g_k,
    odd iterations try s's / s'y and even ones s'y / y'y; the first
    iteration, and any whose s'y is not positive, tries 1/N. A rejected
    step is halved (BACKTRACK) until it ascends. The ascent stops after
    MAX_ITERS accepted steps, or earlier once the log-likelihood gained
    over the last WINDOW accepted steps falls below
    WINDOW_TOL * max(|loglik|, 1) (``converged``). When no step down to
    MIN_STEP ascends, the last feasible state is returned with
    ``step_failed`` set. The fit draws nothing: the same graph gives the
    same bits.

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

    kernels = _Kernels(graph)
    state = project_constraints(_spectral_init(graph, k))
    ll = kernels.loglik(state.q, state.v)
    fit = LsmFit(state=state, loglik_trace=[ll], n_evals=1)
    trace = fit.loglik_trace
    x_prev = g_prev = None  # the last iterate and ascent direction

    for it in range(MAX_ITERS):
        dq, dv = kernels.gradient(state.q)
        x, g = state.x(), np.column_stack([dq, dv])
        step = 1.0 / graph.n
        if it:
            s, y = x - x_prev, g_prev - g
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                step = float(np.vdot(s, s)) / sy if it % 2 else sy / float(np.vdot(y, y))
        x_prev, g_prev = x, g
        accepted = False
        while step >= MIN_STEP:
            cand = project_constraints(LsmState(state.q + step * dq, state.v + step * dv))
            ll_cand = kernels.loglik(cand.q, cand.v)
            fit.n_evals += 1
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
        state, ll = cand, ll_cand
        trace.append(ll)
        fit.n_iters = it + 1
        if len(trace) > WINDOW and trace[-1] - trace[-1 - WINDOW] < WINDOW_TOL * max(abs(ll), 1.0):
            fit.converged = True
            break

    fit.state = state
    return fit


def sample_lsm_graph(state: LsmState, rng: np.random.Generator) -> Graph:
    """Draw one graph with edge probabilities sigmoid(chi); isolated nodes
    are kept (no resampling), as in the benchmark's sparse regimes. The
    Bernoulli sweep of ``sample_graph`` reads chi in strips of rows, each
    one product of [q | v | 1] rows and [q | 1 | v]', so no N x N array is
    formed; the uniforms and the graph are those of the dense sigmoid."""
    f, g = _chi_factors(state.q, state.v)

    def strip(r0: int, r1: int) -> np.ndarray:
        chi = f[r0:r1] @ g[r0:].T
        return expit(chi, out=chi)

    return _from_upper(state.n, *_sweep_pairs(state.n, strip, rng))

"""Undirected network construction, generation, and spectral embedding.

Graphs are simple, hollow, undirected 0/1 adjacency matrices held in
compressed sparse row (CSR) form, so a graph with E edges costs O(N + E)
memory, and so do its normalized Laplacian and every product with it.
Generators draw Bernoulli edges from a low-rank connection-probability
matrix P built either from explicit latent positions (with a sparsity factor)
or from a (degree-corrected, possibly mixed-membership) block structure;
isolated nodes are kept. ``ConnectionOperator`` holds P as its low-rank
factors, the hollow diagonal and a sparse excess of the clipped entries, so
neither the draw nor the truth embedding forms the N x N matrix:
``sample_graph`` sweeps the operator in strips of rows, and Lanczos takes
products with it. The operator is P's one implementation:
``connection_matrix`` is its dense form, with the RDPG pair check.
Spectral embeddings keep the eigenvectors of the k eigenvalues of largest
magnitude with a deterministic sign convention and, above the dense limit, a
fixed Lanczos start, so that repeated runs agree exactly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .csvio import CHUNK_LINES, Rows, read_table, repeated_rows, row_of, write_table
from .errors import (
    DataError,
    EigConvergenceFailure,
    InvalidProbability,
    ShapeMismatch,
)

# Above this size the dense symmetric eigensolver gives way to Lanczos,
# started from a fixed pseudo-random vector drawn with this seed. The
# crossover was measured with one BLAS thread, best of 7, dense eigh against
# eigsh at the tolerance and start below: for an adjacency with k=4, 0.82 vs
# 1.09 ms at N=100, 1.93 vs 1.27 ms at N=150, 8.8 vs 1.8 ms at N=320 and
# 173 vs 36 ms at N=1000; for a connection matrix with k=3, 171 vs 8.3 ms at
# N=1000. Eigenvalues agreed to 9e-14, sign-fixed eigenvectors to 6e-9.
DENSE_EIG_LIMIT = 128
_LANCZOS_START_SEED = 20240601

# Rows of P per strip of the Bernoulli sweep: a strip holds at most
# _STRIP_ROWS x N probabilities (1 MB at N = 1000).
_STRIP_ROWS = 128


class _FrozenCsr(scipy.sparse.csr_array):
    """CSR array that refuses item assignment. Read-only buffers alone stop
    a write to a stored entry but not the structural insert of a new one."""

    def __setitem__(self, key, value):
        raise ValueError("a Graph's adjacency is read-only")


def _freeze(a: _FrozenCsr) -> _FrozenCsr:
    """``a`` with its buffers made read-only."""
    for buf in (a.data, a.indices, a.indptr):
        buf.flags.writeable = False
    return a


@dataclass
class Graph:
    """Simple undirected graph held as a read-only CSR 0/1 adjacency.

    ``adjacency`` may be given dense or sparse; it is stored as a
    ``scipy.sparse.csr_array`` with sorted indices and no explicit zeros.
    Invariants (checked on construction): the matrix is square, symmetric,
    hollow (zero diagonal), 0/1 and read-only. ``n`` is read off its shape.
    """

    adjacency: scipy.sparse.csr_array

    def __post_init__(self):
        shape = np.shape(self.adjacency)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ShapeMismatch(f"adjacency shape {shape} is not square")
        a = _FrozenCsr(self.adjacency, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if (a != a.T).nnz:
            raise DataError("adjacency matrix is not symmetric")
        if np.any(a.diagonal() != 0):
            raise DataError("adjacency matrix has a nonzero diagonal")
        if np.any(a.data != 1):
            raise DataError("adjacency entries must be 0 or 1")
        self.adjacency = _freeze(a)

    @classmethod
    def _built(cls, adjacency: _FrozenCsr) -> Graph:
        """Graph over a CSR that its builder made square, symmetric, hollow,
        0/1 and sorted: frozen in place, without the copy and the checks."""
        g = object.__new__(cls)
        g.adjacency = _freeze(adjacency)
        return g

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @functools.cached_property
    def laplacian(self) -> scipy.sparse.csr_array:
        """The normalized Laplacian, built by the module's function on first use and kept."""
        return normalized_laplacian(self)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(float)

    @property
    def density(self) -> float:
        """Fraction of the n(n-1)/2 possible edges present."""
        if self.n < 2:
            return 0.0
        return self.adjacency.nnz / (self.n * (self.n - 1))


def _from_upper(n: int, lo: np.ndarray, hi: np.ndarray) -> Graph:
    """Graph on ``n`` nodes with one edge per pair (lo[e], hi[e]), lo < hi."""
    # lower triangle first: row-major pairs then give each CSR row sorted
    rows, cols = np.concatenate([hi, lo]), np.concatenate([lo, hi])
    # the conversion to CSR sorts each row's indices
    a = _FrozenCsr(scipy.sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)))
    return Graph._built(a)


@dataclass
class RdpgSpec:
    """Latent positions ``x`` (N x K) with sparsity ``rho``; edge
    probability rho * x_i'x_j."""

    x: np.ndarray
    rho: float = 1.0

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if not 0.0 < self.rho <= 1.0:
            raise DataError(f"rho = {self.rho} must lie in (0, 1]")


@dataclass
class DcsbmSpec:
    """Degree-corrected block model with hard memberships.

    ``block_matrix`` is K x K nonnegative, ``memberships`` holds a block
    index per node, ``degrees`` positive heterogeneity weights. The
    connection matrix is rescaled so its largest row sum equals
    ``max_expected_degree`` and then clipped to [0, 1].
    """

    block_matrix: np.ndarray
    memberships: np.ndarray
    degrees: np.ndarray
    max_expected_degree: float

    def __post_init__(self):
        self.block_matrix = np.asarray(self.block_matrix, dtype=float)
        self.degrees = np.asarray(self.degrees, dtype=float)
        k = len(np.atleast_1d(self.block_matrix))
        if self.block_matrix.shape != (k, k) or self.degrees.ndim != 1:
            raise ShapeMismatch("the block matrix must be K x K and the degrees a vector")
        # each check below fails on NaN too
        if not np.all(self.block_matrix >= 0):
            raise DataError("block matrix entries must be nonnegative")
        if not (np.all(self.degrees > 0) and self.max_expected_degree > 0):
            raise DataError("degree parameters and max_expected_degree must be positive")
        self.memberships = self._checked_memberships(np.asarray(self.memberships), k)

    def _checked_memberships(self, labels: np.ndarray, k: int) -> np.ndarray:
        if labels.shape != self.degrees.shape:
            raise ShapeMismatch(f"{labels.shape} memberships for {self.degrees.size} nodes")
        if not np.isin(labels, np.arange(k)).all():
            raise DataError(f"memberships must be block labels 0..{k - 1}")
        return labels

    def membership_matrix(self) -> np.ndarray:
        return np.eye(self.block_matrix.shape[0])[self.memberships.astype(int)]


@dataclass
class DcmmsbmSpec(DcsbmSpec):
    """Mixed-membership variant: ``memberships`` rows lie on the simplex."""

    def _checked_memberships(self, rows: np.ndarray, k: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (self.degrees.size, k):
            raise ShapeMismatch(f"{rows.shape} memberships for {self.degrees.size} nodes, K = {k}")
        if not (np.all(rows >= 0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)):
            raise DataError("membership rows must be nonnegative and sum to 1")
        return rows

    def membership_matrix(self) -> np.ndarray:
        return self.memberships


LatentGraphSpec = Union[RdpgSpec, DcsbmSpec, DcmmsbmSpec]


@dataclass
class Embedding:
    """Leading eigenpairs of a symmetric matrix, ordered by |eigenvalue|."""

    vectors: np.ndarray
    eigenvalues: np.ndarray


def normalized_laplacian(g: Graph) -> scipy.sparse.csr_array:
    """Symmetric normalized Laplacian D^{-1/2} A D^{-1/2}, as CSR on the
    adjacency's sparsity pattern (built in O(N + E)).

    The rows and columns of isolated (degree-0) nodes are all zero, so such
    a node has no peer term.
    """
    a = g.adjacency
    # isolated nodes store no entries, so their placeholder 1 is never read
    inv_sqrt = 1.0 / np.sqrt(np.maximum(g.degrees, 1.0))
    # entry (i, j) is inv_sqrt[i] * inv_sqrt[j]; row i holds d_i entries
    data = np.repeat(inv_sqrt, np.diff(a.indptr)) * inv_sqrt[a.indices]
    return scipy.sparse.csr_array((data, a.indices, a.indptr), shape=a.shape)


def hollow_row_sums(theta: np.ndarray, m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Row sums of Theta M B M' Theta with its diagonal zeroed, in O(N K^2)
    without forming the N x N matrix:
    theta * (M B (M' theta)) - theta^2 * diag(M B M').

    The block models' one rescale rule: ``ConnectionOperator`` scales P so
    the largest of these sums is the target maximum expected degree."""
    mb = m @ block
    return theta * (mb @ (m.T @ theta)) - theta**2 * np.einsum("ij,ij->i", mb, m)


def _rescale(spec: DcsbmSpec) -> float:
    """Factor that takes the largest hollow row sum to the target degree."""
    row_max = hollow_row_sums(spec.degrees, spec.membership_matrix(), spec.block_matrix).max()
    if row_max <= 0:
        raise DataError("connection matrix has no mass to rescale")
    return spec.max_expected_degree / row_max


def connection_matrix(spec: LatentGraphSpec) -> np.ndarray:
    """Population edge-probability matrix P implied by a generator spec, as
    a dense N x N array: ``ConnectionOperator(spec).toarray()``, the one
    computation of P, with its warning about clipped entries.

    For latent positions this is rho * X X'; its first pair i < j (row-major)
    that is NaN or outside [0, 1] raises :class:`InvalidProbability`, as in
    ``sample_graph``, and the diagonal, no edge's probability, is not checked.
    For block models it is Theta M B M' Theta with its diagonal zeroed,
    rescaled so the largest row sum equals the target maximum expected
    degree, then clipped to [0, 1].
    """
    p = ConnectionOperator(spec).toarray()
    if isinstance(spec, RdpgSpec):
        _check_pairs(p.shape[0], p[upper_mask(p.shape[0])], 0)
    return p


class ConnectionOperator(scipy.sparse.linalg.LinearOperator):
    """The connection matrix P of a generator spec, held without its N x N
    array, as P = U V' - D - E.

    An RDPG has U = rho X and V = X, with D and E zero. A block model has
    U = c Theta M B and V = Theta M, where c is the rescale that takes the
    largest hollow row sum to the target degree, D the diagonal of U V' (the
    graph is hollow) and E the sparse excess U_i'V_j - 1 of the entries
    clipped to 1. E is found without a sweep: entry (i, j) is at most
    c max(B) w_i w_j for the row sums w of |V| (theta, for membership rows on
    the simplex), so sorting w bounds the pairs that can clip. Building the
    operator warns how many entries were clipped.

    A product takes O(N K) plus the sparse E; ``eigsh`` runs on it directly.
    ``toarray`` gives the dense P, and ``strip`` the rows of it that the
    Bernoulli sweep of ``sample_graph`` reads.
    """

    def __init__(self, spec: LatentGraphSpec):
        if isinstance(spec, RdpgSpec):
            self.left, self.right, self.hollow = spec.rho * spec.x, spec.x, False
        else:
            scale = _rescale(spec)
            self.right = spec.degrees[:, None] * spec.membership_matrix()
            self.left = scale * (self.right @ spec.block_matrix)
            self.hollow = True
            self.diagonal = np.einsum("ij,ij->i", self.left, self.right)
            self.excess = self._clipped_excess(scale * spec.block_matrix.max())
            if self.excess.nnz:
                warnings.warn(
                    f"{self.excess.nnz} connection probabilities exceeded 1 and were clipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
        super().__init__(dtype=np.dtype(float), shape=(self.left.shape[0],) * 2)

    def _clipped_excess(self, c_max: float) -> scipy.sparse.csr_array:
        """E, evaluated on the pairs whose bound c_max w_i w_j exceeds 1 (with
        a margin for rounding): in descending order of w, each node's
        candidates are a prefix."""
        n = self.left.shape[0]
        w = np.abs(self.right).sum(axis=1)
        order = np.argsort(-w, kind="stable")
        ws = w[order]
        reach = np.searchsorted(-ws, -1.0 / ((1.0 + 1e-9) * c_max * ws))
        a = np.repeat(np.arange(n), reach)
        b = np.arange(a.size) - np.repeat(np.cumsum(reach) - reach, reach)
        i, j = order[a], order[b]
        i, j = i[i != j], j[i != j]
        vals = np.einsum("ij,ij->i", self.left[i], self.right[j])
        over = vals > 1.0
        return scipy.sparse.csr_array((vals[over] - 1.0, (i[over], j[over])), shape=(n, n))

    def _matmat(self, x: np.ndarray) -> np.ndarray:
        out = self.left @ (self.right.T @ x)
        if self.hollow:
            out -= self.diagonal[:, None] * x
            out -= self.excess @ x
        return out

    def strip(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0:r1 of P on columns r0:N, clipped, from one product of the
        factors; the diagonal, which the sweep never reads, is left as the
        product gives it."""
        s = self.left[r0:r1] @ self.right[r0:].T
        return np.minimum(s, 1.0, out=s) if self.hollow else s

    def toarray(self) -> np.ndarray:
        p = self.strip(0, self.shape[0])
        if self.hollow:
            np.fill_diagonal(p, 0.0)
        return p


def upper_mask(n: int) -> np.ndarray:
    """Boolean n x n mask of the strict upper triangle. Indexing with it
    selects the pairs i < j in row-major order, as ``np.triu_indices`` does,
    at one byte per entry instead of two int64 index arrays."""
    rows = np.arange(n)
    return rows[:, None] < rows


def _upper_pairs(n: int, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, at positions ``pos`` of the row-major strict upper
    triangle: row i starts at i (2n - i - 1) / 2 and holds n - 1 - i pairs."""
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, pos, side="right") - 1
    return i, pos - starts[i] + i + 1


def _check_pairs(n: int, probs: np.ndarray, start: int) -> None:
    """Raise :class:`InvalidProbability` for the first entry of ``probs``
    that is NaN or outside [0, 1]; ``probs`` holds the pairs i < j of an
    n-node graph in row-major order from position ``start`` on."""
    # min and max propagate a NaN, so a NaN fails this fast test too
    if probs.size == 0 or (probs.min() >= 0.0 and probs.max() <= 1.0):
        return
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))[0]
    i, j = _upper_pairs(n, start + bad)
    raise InvalidProbability(int(i), int(j), float(probs[bad]))


def _sweep_pairs(n: int, strip, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of a Bernoulli draw on ``n`` nodes, in
    row-major order, drawn strip by strip.

    ``strip(r0, r1)`` gives rows r0:r1 of the probability matrix on columns
    r0:n, for strips of _STRIP_ROWS rows; only the strip's pairs i < j are
    read. They draw one uniform each, in row-major order, so the uniforms
    are those of one ``rng.random`` call over the whole triangle. Before a
    strip draws, its first pair that is NaN or outside [0, 1] raises
    :class:`InvalidProbability`. The diagonal is never read.
    """
    upper = np.arange(n) > np.arange(min(n, _STRIP_ROWS))[:, None]  # sliced per strip below
    hits, done = [np.empty(0, dtype=np.int64)], 0
    for r0 in range(0, n, _STRIP_ROWS):
        shape = (min(r0 + _STRIP_ROWS, n) - r0, n - r0)
        probs = strip(r0, r0 + shape[0])[upper[: shape[0], : shape[1]]]
        _check_pairs(n, probs, done)
        hits.append(done + np.flatnonzero(rng.random(probs.size) < probs))
        done += probs.size
    return _upper_pairs(n, np.concatenate(hits))


def sample_graph(p: ConnectionOperator, rng: np.random.Generator) -> Graph:
    """Hollow symmetric Bernoulli graph with the edge probabilities of ``p``.

    Only the pairs i < j are read, never the diagonal, in strips of rows, so
    P is never formed whole; one uniform is drawn per pair in row-major
    order, and isolated nodes are kept. The first pair whose probability is
    NaN or outside [0, 1] raises :class:`InvalidProbability`, the pair that
    ``connection_matrix`` reports for an RDPG.
    """
    return _from_upper(p.shape[0], *_sweep_pairs(p.shape[0], p.strip, rng))


def _order_by_magnitude(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by |value| desc, then value desc, then index."""
    return np.lexsort((-eigenvalues, -np.abs(eigenvalues)))  # stable: ties keep index order


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (the first, on a tie)
    is positive. The result is C-ordered whatever the input's layout, since
    the rounding of a product with it depends on the layout."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.multiply(vectors, np.where(lead < 0, -1.0, 1.0), order="C")


def _leading_eigenpairs(
    a: np.ndarray | scipy.sparse.sparray | ConnectionOperator, k: int, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """k leading eigenpairs of a symmetric matrix, leading first.

    ``which`` is "LM" (largest |eigenvalue|, ties by value then index) or
    "LA" (largest eigenvalue). Dense ``eigh`` up to DENSE_EIG_LIMIT rows,
    Lanczos above that from a fixed start vector drawn from its own stream,
    so repeated calls agree bit for bit and no caller's rng is consumed.
    ``a`` may be dense, sparse or an operator; only the dense solver
    densifies it. Any ARPACK failure raises EigConvergenceFailure.
    """
    n = a.shape[0]
    if n <= DENSE_EIG_LIMIT or k >= n - 1:
        vals, vecs = np.linalg.eigh(a if isinstance(a, np.ndarray) else a.toarray())
    else:
        v0 = np.random.default_rng(_LANCZOS_START_SEED).uniform(-1.0, 1.0, n)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                a, k=k, which=which, tol=1e-8, maxiter=10 * n, v0=v0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise EigConvergenceFailure(str(exc)) from exc
        except scipy.sparse.linalg.ArpackError as exc:
            raise EigConvergenceFailure(
                f"{exc} (the start vector lies in the null space of the matrix, "
                "as for a graph with no edges)"
            ) from exc
    if which == "LM":
        order = _order_by_magnitude(vals)[:k]
    else:
        order = np.argsort(vals, kind="stable")[::-1][:k]
    return vals[order], vecs[:, order]


def embed_symmetric(
    a: np.ndarray | scipy.sparse.sparray | ConnectionOperator, k: int
) -> Embedding:
    """Leading-|eigenvalue| eigenpairs of a symmetric matrix, dense, sparse
    or a ``ConnectionOperator``.

    Each eigenvector's largest-magnitude entry is positive. Dense solver up
    to DENSE_EIG_LIMIT rows, Lanczos from a fixed start above that, so the
    result is deterministic at every size. The first j columns of a k-pair
    embedding are those of the j-pair embedding on the dense path; on the
    Lanczos path they agree to the solver tolerance.
    """
    if not (scipy.sparse.issparse(a) or isinstance(a, ConnectionOperator)):
        a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ShapeMismatch(f"k = {k} must satisfy 1 <= k <= {n}")
    vals, vecs = _leading_eigenpairs(a, k, "LM")
    return Embedding(_fix_signs(vecs), vals)


def spectral_embed(g: Graph, k: int) -> Embedding:
    """Adjacency spectral embedding of a graph in dimension ``k``; Lanczos
    runs on the sparse adjacency."""
    return embed_symmetric(g.adjacency, k)


def procrustes_align(
    u_hat: np.ndarray, u_ref: np.ndarray
) -> tuple[np.ndarray, float]:
    """Orthogonal matrix h minimizing ||u_hat - u_ref h||_F, and that minimum.

    Solved from the singular decomposition of u_ref' u_hat.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u_hat.shape != u_ref.shape:
        raise ShapeMismatch(f"shapes {u_hat.shape} and {u_ref.shape} differ")
    u, _, vt = np.linalg.svd(u_ref.T @ u_hat)
    h = u @ vt
    residual = float(np.linalg.norm(u_hat - u_ref @ h))
    return h, residual


def select_k(
    g: Graph,
    k_max: int,
    folds: int = 5,
    holdout_fraction: float = 0.1,
    *,
    rng: np.random.Generator,
) -> int:
    """Embedding dimension chosen by cross-validation on hidden node pairs.

    Each fold hides each node pair i < j with probability
    ``holdout_fraction`` through the strip sweep of ``sample_graph``, so no
    array over all pairs is made, takes the hidden edges out of the sparse
    adjacency, scales the remaining entries by 1/(1 - holdout_fraction) and
    reconstructs with a rank-k truncated eigendecomposition; squared error
    on the hidden pairs is averaged over folds and the k with the smallest
    mean error wins (ties go to the smaller k). No dense copy of the graph
    is made above the dense eigensolver's limit. An ``rng`` in the state
    that drew ``g`` would hide every edge drawn with a probability below
    ``holdout_fraction``.
    """
    if not 1 <= k_max < g.n:
        raise ShapeMismatch(f"k_max = {k_max} must satisfy 1 <= k_max < n = {g.n}")
    if folds < 2:
        raise DataError("folds must be >= 2")
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError("holdout_fraction must lie in (0, 1)")

    def hidden(r0: int, r1: int) -> np.ndarray:  # the probability that a pair is hidden
        return np.broadcast_to(holdout_fraction, (r1 - r0, g.n - r0))

    a, errors = g.adjacency, np.zeros((folds, k_max))
    for f in range(folds):
        i, j = _sweep_pairs(g.n, hidden, rng)
        if not i.size:  # a fold that hides no pair scores every k as 0
            continue
        truth = a[i, j]
        edge = truth != 0
        a_obs = (a - _from_upper(g.n, i[edge], j[edge]).adjacency) / (1.0 - holdout_fraction)
        emb = embed_symmetric(a_obs, k_max)
        # Rank-k reconstructions share the leading eigenpairs, so build the
        # holdout predictions incrementally.
        pred = np.zeros(i.size)
        for k in range(k_max):
            uk = emb.vectors[:, k]
            pred += emb.eigenvalues[k] * uk[i] * uk[j]
            errors[f, k] = np.sum((truth - pred) ** 2)
    return int(np.argmin(errors.mean(axis=0))) + 1


def read_edge_csv(path: str, n_nodes: int | None = None) -> Graph:
    """Load an undirected edge list with header ``src,dst``.

    Node ids are 0-based and each edge must appear exactly once; negative
    ids, self loops and duplicates are rejected with the row number of the
    first offending row. A negative ``n_nodes`` is rejected as well.
    """
    if n_nodes is not None and n_nodes < 0:
        raise DataError(f"{path}: node count {n_nodes} is negative")
    lo, hi = _read_pairs(path)
    # the first row breaking any rule, with the rules checked in this order
    # on that row
    offenders = (np.flatnonzero(lo < 0), np.flatnonzero(lo == hi), repeated_rows(lo, hi))
    firsts = [rows[0] for rows in offenders if rows.size]
    if firsts:
        j = min(firsts)
        where = row_of(path, j)
        if lo[j] < 0:
            raise DataError(f"{where}: negative node id")
        if lo[j] == hi[j]:
            raise DataError(f"{where}: self-loop on node {lo[j]}")
        raise DataError(f"{where}: duplicate edge ({lo[j]}, {hi[j]})")
    n = n_nodes if n_nodes is not None else (int(hi.max()) + 1 if hi.size else 0)
    over = np.flatnonzero(hi >= n)
    if over.size:
        j = over[0]
        raise DataError(f"{row_of(path, j)}: edge ({lo[j]},{hi[j]}) exceeds node count {n}")
    return _from_upper(n, lo, hi)


def _read_pairs(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger id of each edge of an ``src,dst`` file, in
    file order."""
    with read_table(path, ["src", "dst"]) as (_, chunks):
        record = [("src", np.int64), ("dst", np.int64)]
        edges = Rows(record)
        for chunk in chunks:
            edges.add(len(chunk.lines))[:] = chunk.load(record, "edge ")
    src, dst = (edges.array()[end] for end in ("src", "dst"))
    return np.minimum(src, dst), np.maximum(src, dst)


def write_edge_csv(g: Graph, path: str) -> None:
    """Write each undirected edge once as ``src,dst``, in row-major order of
    the upper triangle, with CRLF line ends (atomic replace)."""
    a = g.adjacency
    rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
    upper = a.indices > rows  # indices are sorted within each row
    src, dst = rows[upper], a.indices[upper]

    def pairs():
        # a slice at a time, so no list holds every id as a Python int
        for start in range(0, src.size, CHUNK_LINES):
            stop = start + CHUNK_LINES
            yield from zip(src[start:stop].tolist(), dst[start:stop].tolist())

    write_table(path, ["src", "dst"], pairs())

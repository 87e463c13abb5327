"""Undirected network construction, generation, and spectral embedding.

Graphs are simple, hollow, undirected 0/1 adjacency matrices held in
compressed sparse row (CSR) form, so a graph with E edges costs O(N + E)
memory, and so do its normalized Laplacian and every product with it.
Generators draw Bernoulli edges from a low-rank connection-probability
matrix built either from explicit latent positions (with a sparsity factor)
or from a (degree-corrected, possibly mixed-membership) block structure;
isolated nodes are kept. Spectral embeddings keep the eigenvectors of the k
eigenvalues of largest magnitude with a deterministic sign convention and,
above the dense limit, a fixed Lanczos start, so that repeated runs agree
exactly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .csvio import Table, load_columns, repeated_rows, write_table
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


class _FrozenCsr(scipy.sparse.csr_array):
    """CSR array that refuses item assignment. Read-only buffers alone stop
    a write to a stored entry but not the structural insert of a new one."""

    def __setitem__(self, key, value):
        raise ValueError("a Graph's adjacency is read-only")


@dataclass
class Graph:
    """Simple undirected graph held as a read-only CSR 0/1 adjacency.

    ``adjacency`` may be given dense or sparse; it is stored as a
    ``scipy.sparse.csr_array`` with sorted indices and no explicit zeros.
    Invariants (checked on construction): the matrix is square of size
    ``n``, symmetric, hollow (zero diagonal), 0/1 and read-only.
    """

    n: int
    adjacency: scipy.sparse.csr_array

    def __post_init__(self):
        if np.shape(self.adjacency) != (self.n, self.n):
            raise ShapeMismatch(
                f"adjacency shape {np.shape(self.adjacency)} != ({self.n}, {self.n})"
            )
        a = _FrozenCsr(self.adjacency, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if (a != a.T).nnz:
            raise DataError("adjacency matrix is not symmetric")
        if np.any(a.diagonal() != 0):
            raise DataError("adjacency matrix has a nonzero diagonal")
        if np.any(a.data != 1):
            raise DataError("adjacency entries must be 0 or 1")
        for buf in (a.data, a.indices, a.indptr):
            buf.flags.writeable = False
        self.adjacency = a

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
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    a = scipy.sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return Graph(n, a.tocsr())


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
        self.memberships = np.asarray(self.memberships)
        self.degrees = np.asarray(self.degrees, dtype=float)
        if np.any(self.block_matrix < 0):
            raise DataError("block matrix entries must be nonnegative")
        if np.any(self.degrees <= 0):
            raise DataError("degree parameters must be positive")
        if self.max_expected_degree <= 0:
            raise DataError("max_expected_degree must be positive")

    def membership_matrix(self) -> np.ndarray:
        k = self.block_matrix.shape[0]
        m = np.zeros((len(self.memberships), k))
        m[np.arange(len(self.memberships)), self.memberships.astype(int)] = 1.0
        return m


@dataclass
class DcmmsbmSpec(DcsbmSpec):
    """Mixed-membership variant: ``memberships`` rows lie on the simplex."""

    def __post_init__(self):
        super().__post_init__()
        rows = np.asarray(self.memberships, dtype=float)
        if rows.ndim != 2:
            raise DataError("mixed memberships must be an N x K matrix")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-12:
            raise DataError("membership rows must sum to 1")
        self.memberships = rows

    def membership_matrix(self) -> np.ndarray:
        return self.memberships


LatentGraphSpec = Union[RdpgSpec, DcsbmSpec, DcmmsbmSpec]


@dataclass
class Embedding:
    """Leading eigenpairs of a symmetric matrix, ordered by |eigenvalue|."""

    vectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def k(self) -> int:
        """Embedding dimension: the number of eigenvector columns."""
        return self.vectors.shape[1]


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


def connection_matrix(spec: LatentGraphSpec) -> np.ndarray:
    """Population edge-probability matrix P implied by a generator spec.

    For latent positions this is rho * X X'. For block models it is
    Theta M B M' Theta rescaled so the largest row sum equals the target
    maximum expected degree, then clipped to [0, 1] (a warning reports how
    many entries were clipped).
    """
    if isinstance(spec, RdpgSpec):
        p = spec.rho * (spec.x @ spec.x.T)
        bad = (p < 0) | (p > 1)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise InvalidProbability(int(i), int(j), float(p[i, j]))
        return p
    m = spec.membership_matrix()
    theta = spec.degrees
    p = (theta[:, None] * theta[None, :]) * (m @ spec.block_matrix @ m.T)
    # expected degrees are over the hollow graph, so the diagonal carries
    # no mass before the rescale
    np.fill_diagonal(p, 0.0)
    row_max = p.sum(axis=1).max()
    if row_max <= 0:
        raise DataError("connection matrix has no mass to rescale")
    p *= spec.max_expected_degree / row_max
    n_clipped = int(np.count_nonzero(p > 1.0))
    if n_clipped:
        warnings.warn(
            f"{n_clipped} connection probabilities exceeded 1 and were clipped",
            RuntimeWarning,
            stacklevel=2,
        )
        p = np.minimum(p, 1.0)
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


def sample_graph(p: np.ndarray, rng: np.random.Generator) -> Graph:
    """Hollow symmetric Bernoulli graph with edge probabilities ``p``.

    Build ``p`` with ``connection_matrix`` (or any symmetric matrix of
    probabilities); only its strict upper triangle is read. One uniform is
    drawn per pair i < j in row-major order, and isolated nodes are kept.
    A non-square ``p`` raises :class:`ShapeMismatch`; the first pair whose
    probability is NaN or outside [0, 1] raises :class:`InvalidProbability`.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"edge probabilities must be a square matrix, got {p.shape}")
    n = p.shape[0]
    probs = p[upper_mask(n)]
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))
    if bad.size:
        i, j = _upper_pairs(n, bad[:1])
        raise InvalidProbability(int(i[0]), int(j[0]), float(probs[bad[0]]))
    hit = np.flatnonzero(rng.random(probs.size) < probs)
    return _from_upper(n, *_upper_pairs(n, hit))


def _order_by_magnitude(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by |value| desc, then value desc, then index."""
    return np.lexsort((-eigenvalues, -np.abs(eigenvalues)))  # stable: ties keep index order


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def _leading_eigenpairs(
    a: np.ndarray | scipy.sparse.sparray, k: int, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """k leading eigenpairs of a symmetric matrix, leading first.

    ``which`` is "LM" (largest |eigenvalue|, ties by value then index) or
    "LA" (largest eigenvalue). Dense ``eigh`` up to DENSE_EIG_LIMIT rows,
    Lanczos above that from a fixed start vector drawn from its own stream,
    so repeated calls agree bit for bit and no caller's rng is consumed.
    ``a`` may be dense or sparse; only the dense solver densifies it.
    """
    n = a.shape[0]
    if n <= DENSE_EIG_LIMIT or k >= n - 1:
        vals, vecs = np.linalg.eigh(a.toarray() if scipy.sparse.issparse(a) else a)
    else:
        v0 = np.random.default_rng(_LANCZOS_START_SEED).uniform(-1.0, 1.0, n)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                a, k=k, which=which, tol=1e-8, maxiter=10 * n, v0=v0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise EigConvergenceFailure(str(exc)) from exc
    if which == "LM":
        order = _order_by_magnitude(vals)[:k]
    else:
        order = np.argsort(vals, kind="stable")[::-1][:k]
    return vals[order], vecs[:, order]


def embed_symmetric(a: np.ndarray | scipy.sparse.sparray, k: int) -> Embedding:
    """Leading-|eigenvalue| eigenpairs of a symmetric matrix, dense or sparse.

    Each eigenvector's largest-magnitude entry is positive. Dense solver up
    to DENSE_EIG_LIMIT rows, Lanczos from a fixed start above that, so the
    result is deterministic at every size. The first j columns of a k-pair
    embedding are those of the j-pair embedding on the dense path; on the
    Lanczos path they agree to the solver tolerance.
    """
    if not scipy.sparse.issparse(a):
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
    rng: np.random.Generator | None = None,
) -> int:
    """Embedding dimension chosen by cross-validation on hidden node pairs.

    Each fold hides a random ``holdout_fraction`` of the node pairs, zeroes
    them out, scales the remaining entries by 1/(1 - holdout_fraction) and
    reconstructs with a rank-k truncated eigendecomposition; squared error
    on the hidden pairs is averaged over folds and the k with the smallest
    mean error wins (ties go to the smaller k).
    """
    if rng is None:
        rng = np.random.default_rng()
    if not 1 <= k_max < g.n:
        raise ShapeMismatch(f"k_max = {k_max} must satisfy 1 <= k_max < n = {g.n}")
    if folds < 2:
        raise DataError("folds must be >= 2")
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError("holdout_fraction must lie in (0, 1)")

    a = g.adjacency.toarray()
    iu = np.triu_indices(g.n, k=1)
    n_pairs = iu[0].size
    n_hidden = max(1, int(round(holdout_fraction * n_pairs)))
    errors = np.zeros((folds, k_max))
    for f in range(folds):
        hidden = rng.choice(n_pairs, size=n_hidden, replace=False)
        mask = np.ones(n_pairs, dtype=bool)
        mask[hidden] = False
        a_obs = np.zeros_like(a)
        a_obs[iu[0][mask], iu[1][mask]] = a[iu[0][mask], iu[1][mask]]
        a_obs = (a_obs + a_obs.T) / (1.0 - holdout_fraction)
        emb = embed_symmetric(a_obs, k_max)
        truth = a[iu[0][hidden], iu[1][hidden]]
        # Rank-k reconstructions share the leading eigenpairs, so build the
        # holdout predictions incrementally.
        pred = np.zeros(n_hidden)
        for k in range(k_max):
            uk = emb.vectors[:, k]
            pred += emb.eigenvalues[k] * uk[iu[0][hidden]] * uk[iu[1][hidden]]
            errors[f, k] = np.sum((truth - pred) ** 2)
    mean_err = errors.mean(axis=0)
    return int(np.argmin(mean_err)) + 1


def read_edge_csv(path: str, n_nodes: int | None = None) -> Graph:
    """Load an undirected edge list with header ``src,dst``.

    Node ids are 0-based and each edge must appear exactly once; negative
    ids, self loops and duplicates are rejected with the row number of the
    first offending row.
    """
    table = Table(path)
    header = table.header
    if header is None or [h.strip() for h in header[:2]] != ["src", "dst"]:
        raise DataError(f"{path}: expected header 'src,dst', got {header}")
    lines = table.lines
    edges = np.empty((0, 2), dtype=np.int64)
    if lines:
        edges = load_columns(
            lines, (0, 1), np.int64,
            lambda j: f"{table.where(j)}: cannot parse edge {lines[j]!r}",
        )
    src, dst = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    # the first row breaking any rule, with the rules checked in this order
    # on that row
    offenders = (np.flatnonzero(lo < 0), np.flatnonzero(src == dst), repeated_rows(lo, hi))
    firsts = [rows[0] for rows in offenders if rows.size]
    if firsts:
        j = min(firsts)
        where = table.where(j)
        if lo[j] < 0:
            raise DataError(f"{where}: negative node id")
        if src[j] == dst[j]:
            raise DataError(f"{where}: self-loop on node {src[j]}")
        raise DataError(f"{where}: duplicate edge ({lo[j]}, {hi[j]})")
    n = n_nodes if n_nodes is not None else (int(hi.max()) + 1 if hi.size else 0)
    over = np.flatnonzero(hi >= n)
    if over.size:
        j = over[0]
        raise DataError(f"{table.where(j)}: edge ({lo[j]},{hi[j]}) exceeds node count {n}")
    return _from_upper(n, lo, hi)


def write_edge_csv(g: Graph, path: str) -> None:
    """Write each undirected edge once as ``src,dst``, in row-major order of
    the upper triangle, with CRLF line ends (atomic replace)."""
    a = g.adjacency
    rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
    upper = a.indices > rows  # indices are sorted within each row
    write_table(path, ["src", "dst"], zip(rows[upper].tolist(), a.indices[upper].tolist()))

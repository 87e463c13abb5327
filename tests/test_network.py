import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

import enarkit.network as net
from enarkit import bench
from enarkit.errors import (
    DataError,
    EigConvergenceFailure,
    InvalidProbability,
    ShapeMismatch,
)
from enarkit.network import (
    DcsbmSpec,
    DcmmsbmSpec,
    Graph,
    ConnectionOperator,
    RdpgSpec,
    _order_by_magnitude,
    connection_matrix,
    embed_symmetric,
    normalized_laplacian,
    procrustes_align,
    read_edge_csv,
    sample_graph,
    select_k,
    spectral_embed,
    write_edge_csv,
)
from enarkit.lsm import LsmState, sample_lsm_graph
from oracles import (
    connection_matrix_dense,
    dense_transition,
    fix_signs_loop,
    magnitude_order_sorted,
    random_orthogonal,
    sample_dense,
    sample_graph_triu,
    select_k_dense,
    write_edge_csv_loop,
)


def path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return Graph(a)


def complete_graph(n):
    a = np.ones((n, n)) - np.eye(n)
    return Graph(a)


class TestGraph:
    def test_rejects_asymmetric(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(DataError):
            Graph(a)

    def test_rejects_self_loop(self):
        a = np.eye(2)
        with pytest.raises(DataError):
            Graph(a)

    def test_rejects_non_binary(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(DataError):
            Graph(a)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ShapeMismatch, match="not square"):
            Graph(np.zeros(shape))

    def test_node_count_read_off_shape(self):
        assert path_graph(5).n == 5
        assert Graph(scipy.sparse.csr_array((0, 0))).n == 0

    def test_adjacency_is_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = 1
        assert np.array_equal(g.adjacency.toarray(), path_graph(3).adjacency.toarray())


def assert_same_as_checked(g):
    """``g`` equals the graph that the checked constructor builds from its
    CSR, buffer for buffer, and is frozen like it."""
    ref = Graph(g.adjacency)
    a, b = g.adjacency, ref.adjacency
    assert type(a) is type(b)
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
        assert not x.flags.writeable and not y.flags.writeable
    assert a.has_sorted_indices and b.has_sorted_indices
    with pytest.raises(ValueError):
        a[0, 0] = 1


class TestBuiltGraph:
    """The package's own builds skip the checked constructor's copy and
    checks, and give the graph it gives."""

    @pytest.mark.parametrize("n", [3, 30, 300])
    def test_sample_graph(self, n):
        rng = np.random.default_rng(n)
        x = rng.random((n, 2))
        assert_same_as_checked(sample_dense(connection_matrix_dense(RdpgSpec(x, rho=0.5)), rng))
        spec = mc_spec("dcmmsbm", n, n)
        assert_same_as_checked(sample_graph(ConnectionOperator(spec), rng))

    @pytest.mark.parametrize("n", [2, 40, 200])
    def test_lsm_sampler(self, n):
        rng = np.random.default_rng(n)
        state = LsmState(rng.standard_normal((n, 2)), rng.standard_normal(n))
        assert_same_as_checked(sample_lsm_graph(state, rng))

    @pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (9, 36), (50, 300), (400, 3000)])
    def test_random_pair_sets(self, n, count):
        # pairs in random order, as an edge list or a holdout draw gives them
        rng = np.random.default_rng(count)
        pos = rng.choice(n * (n - 1) // 2, count, replace=False)
        g = net._from_upper(n, *net._upper_pairs(n, pos))
        assert g.adjacency.nnz == 2 * count
        assert_same_as_checked(g)


class TestLaplacian:
    def test_graph_keeps_its_laplacian(self):
        g = path_graph(4)
        assert g.laplacian is g.laplacian
        assert g.laplacian.toarray().tobytes() == normalized_laplacian(g).toarray().tobytes()

    def test_path_graph_values(self):
        # degrees (1, 2, 1) on the 3-path
        lap = normalized_laplacian(path_graph(3)).toarray()
        assert lap[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert lap[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert lap[0, 2] == 0.0
        assert np.allclose(lap, lap.T)

    def test_triangle_all_half(self):
        lap = normalized_laplacian(complete_graph(3)).toarray()
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_single_edge_radius_one(self):
        lap = normalized_laplacian(complete_graph(2)).toarray()
        assert lap[0, 1] == 1.0
        assert np.max(np.abs(np.linalg.eigvalsh(lap))) == pytest.approx(1.0, abs=1e-12)

    def test_allow_isolated_zero_rows(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        lap = normalized_laplacian(Graph(a)).toarray()
        assert np.all(lap[2, :] == 0) and np.all(lap[:, 2] == 0)

    def test_matches_entrywise_oracle_with_isolated_nodes(self):
        rng = np.random.default_rng(12)
        isolated = 0
        for n in (1, 2, 7, 30, 60):
            a = np.triu((rng.random((n, n)) < 2.0 / n).astype(float), 1)
            g = Graph(a + a.T)
            lap = normalized_laplacian(g)
            assert isinstance(lap, scipy.sparse.csr_array)
            assert np.allclose(lap.toarray(), dense_transition(g, 0.0, 1.0), rtol=1e-15, atol=0)
            isolated += int(np.sum(g.degrees == 0))
        assert isolated > 0

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            while True:
                a = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
                a = a + a.T
                if np.all(a.sum(axis=1) > 0):
                    break
            lap = normalized_laplacian(Graph(a)).toarray()
            assert np.max(np.abs(np.linalg.eigvalsh(lap))) <= 1.0 + 1e-10


class TestGenerators:
    def test_rdpg_all_ones_complete(self):
        spec = RdpgSpec(np.ones((6, 1)), rho=1.0)
        g = sample_dense(connection_matrix_dense(spec), np.random.default_rng(0))
        assert np.array_equal(g.adjacency.toarray(), complete_graph(6).adjacency.toarray())

    def test_probability_above_one_rejected(self):
        with pytest.raises(InvalidProbability) as err:
            sample_dense(np.full((4, 4), 1.5), np.random.default_rng(0))
        assert (err.value.i, err.value.j, err.value.p) == (0, 1, 1.5)

    def test_nan_probability_rejected_at_first_pair(self):
        p = np.full((5, 5), 0.5)
        p[3, 4] = p[4, 3] = -0.25
        p[1, 3] = p[3, 1] = np.nan
        with pytest.raises(InvalidProbability) as err:
            sample_dense(p, np.random.default_rng(0))
        assert (err.value.i, err.value.j) == (1, 3) and np.isnan(err.value.p)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 301])
    def test_draw_matches_triu_indices_reference(self, n):
        rng = np.random.default_rng(n)
        p = rng.random((n, n))
        p = 0.5 * (p + p.T)
        mine, ref = np.random.default_rng(7), np.random.default_rng(7)
        g = sample_dense(p, mine)
        assert np.array_equal(g.adjacency.toarray(), sample_graph_triu(p, ref))
        # both drew the same number of uniforms
        assert mine.random() == ref.random()

    def test_first_bad_pair_in_row_major_order(self):
        rng = np.random.default_rng(8)
        n = 60
        iu = np.triu_indices(n, 1)
        for _ in range(20):
            p = np.full((n, n), 0.5)
            picks = rng.choice(iu[0].size, size=3, replace=False)
            p[iu[0][picks], iu[1][picks]] = rng.choice([-0.5, 1.5, np.nan], size=3)
            first = picks.min()
            with pytest.raises(InvalidProbability) as err:
                sample_dense(p, np.random.default_rng(0))
            assert (err.value.i, err.value.j) == (iu[0][first], iu[1][first])
            assert np.array_equal([err.value.p], [p[iu[0][first], iu[1][first]]], equal_nan=True)

    def test_rdpg_density_matches_probability(self):
        n = 1000
        x = np.full((n, 2), 1 / np.sqrt(2))
        g = sample_dense(connection_matrix_dense(RdpgSpec(x, rho=0.5)), np.random.default_rng(11))
        n_pairs = n * (n - 1) / 2
        se = np.sqrt(0.5 * 0.5 / n_pairs)
        assert abs(g.density - 0.5) < 3 * se

    def test_generated_graphs_valid(self):
        # heterogeneous degrees at sparse scale: isolated nodes are expected,
        # the structural invariants still must hold on every draw
        rng = np.random.default_rng(3)
        k = 2
        block = 2 * 0.225 * np.eye(k) + 0.225 * np.ones((k, k))
        for draw in range(5):
            spec = DcsbmSpec(block, rng.integers(0, k, 40), rng.lognormal(0, 1, 40), 8.0)
            g = sample_dense(connection_matrix_dense(spec), rng)
            a = g.adjacency.toarray()
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)
            assert np.all((a == 0) | (a == 1))

    def test_dcsbm_complete_when_saturated(self):
        spec = DcsbmSpec(np.ones((1, 1)), np.zeros(5, dtype=int), np.ones(5), 4.0)
        g = sample_dense(connection_matrix_dense(spec), np.random.default_rng(0))
        assert np.array_equal(g.adjacency.toarray(), complete_graph(5).adjacency.toarray())

    def test_block_ratio_three(self):
        q = 9 / 40
        block = 2 * q * np.eye(2) + q * np.ones((2, 2))
        assert block[0, 0] / block[0, 1] == pytest.approx(3.0)

    def test_dcsbm_empirical_within_between_ratio(self):
        n, k = 2000, 2
        rng = np.random.default_rng(5)
        q = 9 / 40
        block = 2 * q * np.eye(k) + q * np.ones((k, k))
        memberships = np.repeat([0, 1], n // 2)
        degrees = rng.lognormal(0, 1, n)
        spec = DcsbmSpec(block, memberships, degrees, n ** 0.5)
        g = sample_dense(connection_matrix_dense(spec), rng)
        same = memberships[:, None] == memberships[None, :]
        iu = np.triu_indices(n, 1)
        within_mask = same[iu]
        a = g.adjacency.toarray()
        within = a[iu][within_mask].mean()
        between = a[iu][~within_mask].mean()
        assert within / between == pytest.approx(3.0, rel=0.10)

    def test_max_expected_degree_respected(self):
        rng = np.random.default_rng(9)
        for target in (5.0, 12.0):
            spec = DcmmsbmSpec(
                2 * 0.2 * np.eye(3) + 0.2 * np.ones((3, 3)),
                rng.dirichlet(np.ones(3), 60),
                rng.lognormal(0, 1, 60),
                target,
            )
            with np.errstate(all="ignore"):
                p = connection_matrix(spec)
            # before clipping the max row sum hits the target exactly; after
            # clipping it can only decrease
            assert p.sum(axis=1).max() <= target + 1e-9

    def test_rescale_exact_before_clipping(self):
        rng = np.random.default_rng(21)
        spec = DcsbmSpec(
            np.array([[0.4, 0.1], [0.1, 0.4]]),
            rng.integers(0, 2, 50),
            np.full(50, 1.0),  # constant degrees keep p below 1, no clipping
            6.0,
        )
        p = connection_matrix(spec)
        assert p.sum(axis=1).max() == pytest.approx(6.0, abs=1e-9)

    def test_invalid_probability_rejected(self):
        from enarkit.errors import InvalidProbability

        x = np.full((4, 1), 1.5)
        with pytest.raises(InvalidProbability):
            connection_matrix(RdpgSpec(x, rho=1.0))

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5, np.nan])
    def test_rdpg_rho_outside_unit_interval_rejected(self, rho):
        with pytest.raises(DataError, match=r"must lie in \(0, 1\]"):
            RdpgSpec(np.full((4, 1), 0.5), rho=rho)


STRIP = net._STRIP_ROWS


def mc_spec(gen, n, seed, k=3):
    """A generator spec as the Monte Carlo grid draws it: rho = N^(-1/2),
    log-normal degrees and the degree target pinned to N rho."""
    cell = bench.Cell(gen, "enar", "enar", n, 2, k)
    config = bench.ExperimentConfig([n], [2], [k])
    return bench._make_generator_spec(cell, config, np.random.default_rng(seed))


class TestBlockModelSpecs:
    """A block-model spec checks its own inputs when it is built, so no
    connection matrix is ever formed from an invalid one."""

    block = 0.3 * np.eye(2) + 0.1

    @pytest.mark.parametrize("labels", [[0, 1, -1], [0, 1, 0.7], [0, 1, 5], [0, 1, np.nan]])
    def test_hard_labels_must_name_a_block(self, labels):
        with pytest.raises(DataError, match=r"block labels 0\.\.1"):
            DcsbmSpec(self.block, np.array(labels), np.ones(3), 2.0)

    @pytest.mark.parametrize("rows", [
        [[1.5, -0.5], [0.5, 0.5]], [[0.6, 0.6], [0.5, 0.5]], [[np.nan, 1.0], [0.5, 0.5]],
    ])
    def test_mixed_rows_must_lie_on_the_simplex(self, rows):
        with pytest.raises(DataError, match="nonnegative and sum to 1"):
            DcmmsbmSpec(self.block, np.array(rows), np.ones(2), 1.0)

    @pytest.mark.parametrize("cls, block, memberships, degrees", [
        (DcsbmSpec, np.ones((2, 3)), [0, 1], np.ones(2)),
        (DcsbmSpec, np.ones(2), [0, 1], np.ones(2)),
        (DcsbmSpec, block, [0, 1, 1], np.ones(2)),
        (DcsbmSpec, block, [[0, 1]], np.ones(2)),
        (DcsbmSpec, block, [0, 1], np.ones((2, 1))),
        (DcmmsbmSpec, block, [[0.5, 0.5]], np.ones(2)),
        (DcmmsbmSpec, block, [[1 / 3] * 3] * 2, np.ones(2)),
        (DcmmsbmSpec, block, [0.5, 0.5], np.ones(2)),
    ])
    def test_shapes_must_agree(self, cls, block, memberships, degrees):
        with pytest.raises(ShapeMismatch):
            cls(block, np.array(memberships), degrees, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("block", -0.1), ("block", np.nan), ("degrees", 0.0), ("degrees", np.nan),
        ("target", 0.0), ("target", np.nan),
    ])
    def test_weights_must_be_positive(self, field, value):
        block, degrees, target = self.block.copy(), np.ones(2), 1.0
        if field == "block":
            block[0, 1] = block[1, 0] = value
        elif field == "degrees":
            degrees[1] = value
        else:
            target = value
        with pytest.raises(DataError):
            DcsbmSpec(block, np.array([0, 1]), degrees, target)

    def test_valid_specs_keep_their_memberships(self):
        labels = np.array([1, 0, 1])
        spec = DcsbmSpec(self.block, labels, np.ones(3), 2.0)
        assert spec.memberships is labels
        assert np.array_equal(spec.membership_matrix(), [[0, 1], [1, 0], [0, 1]])
        rows = np.array([[0.25, 0.75], [1.0, 0.0]])
        assert np.array_equal(DcmmsbmSpec(self.block, rows, np.ones(2), 1.0).memberships, rows)


class TestHollowRowSums:
    @pytest.mark.parametrize("gen", ["dcsbm", "dcmmsbm"])
    def test_match_the_dense_row_sums(self, gen):
        spec = mc_spec(gen, 300, 4)
        m, theta = spec.membership_matrix(), spec.degrees
        dense = np.outer(theta, theta) * (m @ spec.block_matrix @ m.T)
        np.fill_diagonal(dense, 0.0)
        expected = dense.sum(axis=1)
        got = net.hollow_row_sums(theta, m, spec.block_matrix)
        assert np.max(np.abs(got - expected) / expected) < 1e-12


class TestStripSweep:
    def test_chunked_uniforms_reproduce_one_call(self):
        # the sweep draws strip by strip what sample_graph drew in one call
        sizes = [0, 1, STRIP - 1, 3 * STRIP, 0, 5000, 2]
        whole, chunked = np.random.default_rng(5), np.random.default_rng(5)
        one = whole.random(sum(sizes))
        pieces = np.concatenate([chunked.random(size) for size in sizes])
        assert np.array_equal(one, pieces)
        assert whole.random() == chunked.random()

    @pytest.mark.parametrize("n", [1, 2, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1])
    def test_matches_triu_indices_reference_at_strip_edges(self, n):
        rng = np.random.default_rng(n)
        p = rng.random((n, n))
        p = 0.5 * (p + p.T)
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        g = sample_dense(p, mine)
        assert np.array_equal(g.adjacency.toarray(), sample_graph_triu(p, ref))
        assert mine.random() == ref.random()

    @pytest.mark.parametrize("n", [STRIP + 1, 2 * STRIP + 1])
    def test_first_bad_pair_in_row_major_order_across_strips(self, n):
        rng = np.random.default_rng(n)
        iu = np.triu_indices(n, 1)
        for _ in range(10):
            p = np.full((n, n), 0.5)
            p[np.tril_indices(n)] = 7.0  # the diagonal and below are never read
            picks = rng.choice(iu[0].size, size=3, replace=False)
            p[iu[0][picks], iu[1][picks]] = rng.choice([-0.5, 1.5, np.nan], size=3)
            first = picks.min()
            with pytest.raises(InvalidProbability) as err:
                sample_dense(p, np.random.default_rng(0))
            assert (err.value.i, err.value.j) == (iu[0][first], iu[1][first])
            assert np.array_equal([err.value.p], [p[iu[0][first], iu[1][first]]], equal_nan=True)

    @pytest.mark.parametrize("n", [30, 2 * STRIP + 1])
    def test_operator_draw_matches_triu_indices_reference(self, n):
        spec = mc_spec("dcmmsbm", n, 8)
        p = connection_matrix_dense(spec)
        g = sample_graph(ConnectionOperator(spec), np.random.default_rng(9))
        assert np.array_equal(g.adjacency.toarray(), sample_graph_triu(p, np.random.default_rng(9)))


GENS = ["dcsbm", "dcmmsbm", "rdpg"]


class TestConnectionOperator:
    @pytest.mark.parametrize("gen", GENS)
    def test_connection_matrix_is_the_operator_dense_form(self, gen):
        # P has one computation: the dense form is the operator's, bit for
        # bit, with the same clipping warning
        spec = mc_spec(gen, 300, 300)
        with warnings.catch_warnings(record=True) as dense:
            warnings.simplefilter("always")
            p = connection_matrix(spec)
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            q = ConnectionOperator(spec).toarray()
        assert p.tobytes() == q.tobytes()
        assert [str(w.message) for w in dense] == [str(w.message) for w in held]
        assert len(held) == (gen != "rdpg")

    @pytest.mark.parametrize("block, memberships", [
        (np.zeros((2, 2)), [0, 1, 0]),  # no block pair carries mass
        (np.eye(2), [0, 1]),  # within-block mass only, one node per block
    ])
    def test_spec_without_pair_mass_cannot_be_rescaled(self, block, memberships):
        spec = DcsbmSpec(block, np.array(memberships), np.ones(len(memberships)), 2.0)
        with pytest.raises(DataError, match="connection matrix has no mass to rescale"):
            ConnectionOperator(spec)

    @pytest.mark.parametrize("gen", GENS)
    @pytest.mark.parametrize("n", [100, 300])
    def test_graphs_match_the_dense_reference(self, gen, n):
        spec = mc_spec(gen, n, n)
        op, p = ConnectionOperator(spec), connection_matrix_dense(spec)
        for seed in range(6):
            got = sample_graph(op, np.random.default_rng(seed))
            ref = sample_dense(p, np.random.default_rng(seed))
            assert (got.adjacency != ref.adjacency).nnz == 0

    @pytest.mark.parametrize("gen", GENS)
    @pytest.mark.parametrize("n", [100, 300])
    def test_products_and_dense_form_match_the_reference(self, gen, n):
        spec = mc_spec(gen, n, n + 1)
        op, p = ConnectionOperator(spec), connection_matrix_dense(spec)
        if gen != "rdpg":
            assert op.excess.nnz > 0  # the clipped correction is exercised
        assert np.max(np.abs(op.toarray() - p)) <= 1e-14 * np.max(p)
        v = np.random.default_rng(0).standard_normal((n, 4))
        for x in (v, v[:, 0]):
            ref = p @ x
            assert np.max(np.abs(op @ x - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("gen", GENS)
    @pytest.mark.parametrize("n", [100, 300])
    def test_embedding_matches_the_reference(self, gen, n):
        # dense eigh at N = 100, Lanczos at N = 300
        spec = mc_spec(gen, n, n + 2)
        got = embed_symmetric(ConnectionOperator(spec), 3)
        ref = embed_symmetric(connection_matrix_dense(spec), 3)
        assert np.max(np.abs(got.vectors - ref.vectors)) < 1e-10
        assert np.max(np.abs(got.eigenvalues - ref.eigenvalues)) < 1e-10 * ref.eigenvalues[0]

    @pytest.mark.parametrize("gen", ["dcsbm", "dcmmsbm"])
    def test_clipping_warning_counts_the_reference_entries(self, gen):
        for seed in range(3):
            spec = mc_spec(gen, 1000, seed)
            with warnings.catch_warnings(record=True) as ref:
                warnings.simplefilter("always")
                connection_matrix_dense(spec)
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                op = ConnectionOperator(spec)
                sample_graph(op, np.random.default_rng(seed))
                embed_symmetric(op, 3)
            assert len(ref) == 1 and int(str(ref[0].message).split()[0]) > 0
            assert [(w.category, str(w.message)) for w in got] == [
                (w.category, str(w.message)) for w in ref
            ]

    @pytest.mark.parametrize("bad_row, value", [(0, -0.5), (STRIP + 3, -0.5), (STRIP + 3, 1.5)])
    def test_rdpg_reports_the_reference_pair(self, bad_row, value):
        # a long row's first pair out of range is the one with the other long
        # row, (STRIP + 1, STRIP + 3) = 1.8; a negative row makes every one of
        # its pairs negative
        x = np.full((2 * STRIP + 5, 1), 0.5)
        x[STRIP + 1] = 1.2
        x[bad_row] = value
        spec = RdpgSpec(x, rho=1.0)
        with pytest.raises(InvalidProbability) as ref:
            connection_matrix(spec)
        with pytest.raises(InvalidProbability) as got:
            sample_graph(ConnectionOperator(spec), np.random.default_rng(0))
        assert (got.value.i, got.value.j, got.value.p) == (ref.value.i, ref.value.j, ref.value.p)

    def test_rdpg_diagonal_is_not_checked(self):
        # only the diagonal (1.44) lies outside [0, 1], and it is no pair's
        x = np.array([[1.2, 0.0], [0.0, 1.2], [0.6, 0.6]])
        p = connection_matrix(RdpgSpec(x, rho=1.0))
        assert np.diagonal(p).max() > 1.0
        assert np.array_equal(p[np.triu_indices(3, 1)], [0.0, 0.72, 0.72])

    def test_unit_norm_rdpg_draws_at_rho_one(self):
        # unit rows as the grid draws them: x_4'x_4 rounds to 1 + 2^-52
        x = np.abs(np.random.default_rng(1).standard_normal((300, 3)))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        spec = RdpgSpec(x, rho=1.0)
        p = connection_matrix_dense(spec)
        assert p[4, 4] > 1.0
        got = sample_graph(ConnectionOperator(spec), np.random.default_rng(0))
        assert np.array_equal(got.adjacency.toarray(), sample_graph_triu(p, np.random.default_rng(0)))


class TestSpectralEmbed:
    def test_complete_graph_leading_pair(self):
        emb = spectral_embed(complete_graph(4), 1)
        assert emb.eigenvalues[0] == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(np.abs(emb.vectors[:, 0]), 0.5, atol=1e-10)
        # sign convention: largest-magnitude entry positive
        assert emb.vectors[np.argmax(np.abs(emb.vectors[:, 0])), 0] > 0

    def test_rank_one_matrix_recovers_direction(self):
        rng = np.random.default_rng(2)
        x = rng.random(30) + 0.1
        p = 0.5 * np.outer(x, x)
        emb = embed_symmetric(p, 1)
        direction = x / np.linalg.norm(x)
        assert np.allclose(np.abs(emb.vectors[:, 0]), direction, atol=1e-10)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        a = rng.random((50, 50))
        a = np.triu((a < 0.2).astype(float), 1)
        a = a + a.T
        emb = embed_symmetric(a, 5)
        gram = emb.vectors.T @ emb.vectors
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_magnitude_ordering(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 40))
        a = (a + a.T) / 2
        emb = embed_symmetric(a, 6)
        mags = np.abs(emb.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_order_by_magnitude_matches_python_sort(self):
        rng = np.random.default_rng(9)
        edge = np.array([3, -3, 0, -0.0, 2, -2, 2, 3, 1e-300, -1e-300])
        spectra = [edge, np.zeros(0), np.array([-0.0, 0.0, 0.0])]
        for _ in range(50):
            n = int(rng.integers(1, 30))
            spectra.append(rng.standard_normal(n))
            # ties in magnitude and in value
            spectra.append(rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=n))
        for vals in spectra:
            assert np.array_equal(_order_by_magnitude(vals), magnitude_order_sorted(vals))

    def test_fix_signs_matches_column_loop_in_c_order(self):
        # an F-ordered input, as a column selection of eigh's vectors gives:
        # a product with the result rounds by its layout, so it must be C
        rng = np.random.default_rng(4)
        for shape in ((7, 4), (1, 3), (5, 0)):
            v = np.asfortranarray(rng.standard_normal(shape))
            if shape == (7, 4):
                v[:, 1] = -0.0
                v[2, 1], v[5, 1] = -3.0, 3.0  # a tie: the first entry leads
            got = net._fix_signs(v)
            assert got.flags.c_contiguous
            assert got.tobytes() == fix_signs_loop(v).tobytes()

    def test_dense_and_lanczos_paths_agree(self):
        rng = np.random.default_rng(8)
        n = 80
        a = np.triu((rng.random((n, n)) < 0.15).astype(float), 1)
        a = a + a.T
        dense = embed_symmetric(a, 3)
        import enarkit.network as net

        old = net.DENSE_EIG_LIMIT
        net.DENSE_EIG_LIMIT = 10
        try:
            lanczos = embed_symmetric(a, 3)
        finally:
            net.DENSE_EIG_LIMIT = old
        assert np.allclose(dense.eigenvalues, lanczos.eigenvalues, atol=1e-6)
        assert np.allclose(np.abs(dense.vectors), np.abs(lanczos.vectors), atol=1e-5)

    def test_lanczos_just_above_the_dense_limit_matches_eigh(self, monkeypatch):
        # a planted three-block graph; k=4 takes one pair from the bulk, as
        # an enar fit with K=3 does for its eigengap
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counting_eigsh(*args, **kwargs):
            calls.append(kwargs.get("which"))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
        n, k = net.DENSE_EIG_LIMIT + 1, 4
        blocks = np.repeat(np.arange(3), [n - 69, 45, 24])
        b = np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.1], [0.05, 0.1, 0.6]])
        rng = np.random.default_rng(0)
        a = np.triu((rng.random((n, n)) < b[blocks][:, blocks]).astype(float), 1)
        a = a + a.T
        emb = embed_symmetric(a, k)
        assert calls == ["LM"]
        vals, vecs = np.linalg.eigh(a)
        lead = np.argsort(-np.abs(vals), kind="stable")[:k]
        ref = vecs[:, lead]
        ref *= np.sign(ref[np.argmax(np.abs(ref), axis=0), np.arange(k)])
        assert np.max(np.abs(emb.eigenvalues - vals[lead])) < 1e-10
        assert np.max(np.abs(emb.vectors - ref)) < 1e-7

    def test_lanczos_without_convergence_is_typed(self, monkeypatch):
        def stalled(a, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros((a.shape[0], 0))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(EigConvergenceFailure, match="No convergence") as err:
            spectral_embed(path_graph(net.DENSE_EIG_LIMIT + 1), 2)
        assert isinstance(err.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)

    def test_k_bounds(self):
        with pytest.raises(ShapeMismatch):
            spectral_embed(complete_graph(3), 4)

    def test_lanczos_repeat_calls_bitwise_equal(self, lanczos_path):
        rng = np.random.default_rng(8)
        n = 150
        a = np.triu((rng.random((n, n)) < 0.1).astype(float), 1)
        a = a + a.T
        first = embed_symmetric(a, 4)
        second = embed_symmetric(a, 4)
        assert lanczos_path == ["LM", "LM"]
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)


class TestProcrustes:
    def test_identity_alignment(self):
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        h, res = procrustes_align(u, u)
        assert np.allclose(h, np.eye(3), atol=1e-12)
        assert res < 1e-12

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.standard_normal((25, 4)))[0]
        r = random_orthogonal(4, rng)
        h, res = procrustes_align(u @ r, u)
        assert np.allclose(h, r, atol=1e-10)
        assert res < 1e-10

    def test_orthogonality_and_optimality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = np.linalg.qr(rng.standard_normal((30, 3)))[0]
            r = random_orthogonal(3, rng)
            noise = 0.01 * rng.standard_normal((30, 3))
            u_hat = u @ r + noise
            h, res = procrustes_align(u_hat, u)
            assert np.max(np.abs(h.T @ h - np.eye(3))) < 1e-10
            # optimal residual cannot exceed the h = r candidate's
            assert res <= np.linalg.norm(noise) + 1e-8
            # and cannot exceed the identity alignment's
            assert res <= np.linalg.norm(u_hat - u) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            procrustes_align(np.ones((3, 2)), np.ones((4, 2)))


class TestSelectK:
    def planted_rank3_probabilities(self, n):
        memberships = np.arange(n) % 3
        p = np.where(memberships[:, None] == memberships[None, :], 0.9, 0.1)
        return p

    def test_recovers_planted_rank(self):
        n = 200
        p = self.planted_rank3_probabilities(n)
        hits = 0
        runs = 20
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            iu = np.triu_indices(n, 1)
            a = np.zeros((n, n))
            a[iu] = (rng.random(iu[0].size) < p[iu]).astype(float)
            a = a + a.T
            g = Graph(a)
            if select_k(g, k_max=6, rng=rng) == 3:
                hits += 1
        assert hits >= 0.8 * runs

    @pytest.mark.parametrize("n", [60, 128, 200])
    def test_same_k_as_dense_reference(self, n):
        # the dense eigensolver runs up to N=128 and Lanczos above it
        k = 3
        spec = DcsbmSpec(0.3 * np.eye(k) + 0.1 * np.ones((k, k)), np.arange(n) % k,
                         np.ones(n), n ** 0.6)
        p = connection_matrix_dense(spec)
        for seed in range(4):
            g = sample_dense(p, np.random.default_rng(seed))
            # hold-out draws on a stream apart from the graph's: the graph's
            # own uniforms would hide every edge whose p is below 0.1
            assert select_k(g, 6, rng=np.random.default_rng(seed + 100)) == select_k_dense(
                g, 6, rng=np.random.default_rng(seed + 100)
            )

    def test_k_max_one(self):
        g = complete_graph(10)
        assert select_k(g, 1, rng=np.random.default_rng(0)) == 1

    def test_folds_that_hide_no_pair(self):
        # 3 pairs hidden with probability 0.01 each: most folds hide none
        g = complete_graph(3)
        for seed in range(5):
            assert select_k(g, 2, holdout_fraction=0.01, rng=np.random.default_rng(seed)) == 1

    @pytest.mark.parametrize("kwargs, error", [
        ({"k_max": 0}, ShapeMismatch),
        ({"k_max": 10}, ShapeMismatch),
        ({"folds": 1}, DataError),
        ({"holdout_fraction": 0.0}, DataError),
        ({"holdout_fraction": 1.0}, DataError),
    ])
    def test_rejects_invalid_settings(self, kwargs, error):
        with pytest.raises(error):
            select_k(complete_graph(10), **{"k_max": 2, **kwargs}, rng=np.random.default_rng(0))

    def test_holdout_draw_bounds_memory_at_n6000(self):
        # the hidden pairs are drawn strip by strip, one uniform per pair:
        # no array over all N(N-1)/2 = 18M pairs is made
        n, k = 6000, 3
        spec = DcsbmSpec(0.3 * np.eye(k) + 0.1 * np.ones((k, k)), np.arange(n) % k,
                         np.ones(n), 40.0)
        g = sample_graph(ConnectionOperator(spec), np.random.default_rng(0))
        tracemalloc.start()
        try:
            got = select_k(g, 4, folds=2, rng=np.random.default_rng(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == k
        assert peak < 170 * 2**20

    def test_tie_breaks_to_smaller(self):
        # argmin picks the first minimum, i.e. the smallest k
        errs = np.array([3.0, 1.0, 1.0, 2.0])
        assert int(np.argmin(errs)) + 1 == 2


class TestEdgeCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = np.triu((rng.random((12, 12)) < 0.4).astype(float), 1)
        a = a + a.T
        g = Graph(a)
        path = tmp_path / "edges.csv"
        write_edge_csv(g, str(path))
        back = read_edge_csv(str(path), n_nodes=12)
        assert np.array_equal(back.adjacency.toarray(), g.adjacency.toarray())

    def test_rejects_duplicate_with_row_number(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("src,dst\n0,1\n1,0\n")
        with pytest.raises(DataError, match="row 3"):
            read_edge_csv(str(path))

    def test_rejects_self_loop_with_row_number(self, tmp_path):
        path = tmp_path / "loop.csv"
        path.write_text("src,dst\n0,1\n2,2\n")
        with pytest.raises(DataError, match="row 3"):
            read_edge_csv(str(path))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(DataError):
            read_edge_csv(str(path))

    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        a = np.triu((rng.random((30, 30)) < 0.2).astype(float), 1)
        g = Graph(a + a.T)
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_edge_csv(g, str(fast))
        write_edge_csv_loop(g, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
        write_edge_csv(Graph(np.zeros((3, 3))), str(fast))
        assert fast.read_bytes() == b"src,dst\r\n"
        assert read_edge_csv(str(fast), n_nodes=3).adjacency.sum() == 0

    def test_shuffled_reversed_pairs_lf_ends_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n3,1\n\n0,2\n  \n2,1\n", newline="")
        expected = np.zeros((5, 5))
        for i, j in ((1, 3), (0, 2), (1, 2)):
            expected[i, j] = expected[j, i] = 1.0
        assert np.array_equal(read_edge_csv(str(path), n_nodes=5).adjacency.toarray(), expected)
        assert read_edge_csv(str(path)).n == 4

    @pytest.mark.parametrize("body", ["src,dst\n", "src,dst\n0,1\n"])
    def test_negative_node_count_rejected(self, tmp_path, body):
        path = tmp_path / "edges.csv"
        path.write_text(body)
        with pytest.raises(DataError, match="node count -1 is negative"):
            read_edge_csv(str(path), n_nodes=-1)

    @pytest.mark.parametrize("body, message", [
        ("src,dst\n0,1\n\n2,3\n3,2\n", r"row 5: duplicate edge \(2, 3\)"),
        ("src,dst\n0,1\n2,-1\n", "row 3: negative node id"),
        ("src,dst\n0,1\n-1,-1\n", "row 3: negative node id"),
        ("src,dst\n2,2\n0,1\n1,0\n", "row 2: self-loop on node 2"),
        ("src,dst\n0,1\n1,x\n", r"row 3: cannot parse edge '1,x'"),
        ("src,dst\n0,1\n4\n", r"row 3: cannot parse edge '4'"),
        ("src,dst\n0,1\n1,9\n", r"row 3: edge \(1,9\) exceeds node count 5"),
        ("a,b\n0,1\n", "expected header 'src,dst,...'"),
        ("dst,src\n0,1\n", "expected header"),
        ("src\n0\n", "expected header"),
        ("", "expected header"),
    ])
    def test_malformed_file_names_offender(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError, match=message):
            read_edge_csv(str(path), n_nodes=5)


class TestEmbeddingConcentration:
    def test_procrustes_residual_shrinks_with_n(self):
        # fixed block-model population, growing graphs
        rng = np.random.default_rng(42)
        k = 3
        q = 9 / 40
        block = 2 * q * np.eye(k) + q * np.ones((k, k))
        medians = []
        for n in (100, 500, 2000):
            memberships = np.arange(n) % k
            spec = DcsbmSpec(block, memberships, np.ones(n), n ** 0.5)
            p = connection_matrix_dense(spec)
            u_p = embed_symmetric(p, k).vectors
            residuals = []
            for _ in range(20):
                g = Graph(_draw(p, rng))
                u_hat = spectral_embed(g, k).vectors
                residuals.append(procrustes_align(u_hat, u_p)[1])
            medians.append(np.median(residuals))
        assert medians[0] >= medians[1] >= medians[2]


def _draw(p, rng):
    n = p.shape[0]
    iu = np.triu_indices(n, 1)
    a = np.zeros((n, n))
    a[iu] = (rng.random(iu[0].size) < p[iu]).astype(float)
    return a + a.T

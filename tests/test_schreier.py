from math import factorial

import numpy as np
import pytest

from permaframe.combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    act,
    adjacent_transposition,
    enumerate_ordered_set_partitions,
    inversion_count,
    lex_rank,
    lex_unrank,
    multiplicity_constants,
    partitions_of,
    reading_order_partition,
)
from permaframe.schreier import (
    adjacent_swap_maps,
    build_characteristic,
    build_schreier,
    build_schreier_direct,
    characteristic_column_map,
    lift,
    minimal_paths,
    project,
)

from oracles import characteristic_by_block_recursion, invert_index_map, relabeled_swap_maps


def shape(*parts):
    return IntegerPartition(tuple(parts))


# ---------------------------------------------------------------------------
# graph construction


@pytest.mark.parametrize("n", range(2, 7))
def test_recursive_matches_direct_edge_rule(n):
    for g in partitions_of(n):
        rec = build_schreier(g)
        direct = build_schreier_direct(g)
        assert np.array_equal(rec.row_words, direct.row_words)
        assert (rec.adjacency != direct.adjacency).nnz == 0


def test_graph_3_2_shape():
    g = build_schreier(shape(3, 2))
    assert g.m == 10
    degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
    assert np.all(degrees == 4)  # n - 1 edge slots, loops included
    assert g.loops.sum() > 0


def test_permutahedron_has_no_loops():
    g = build_schreier(shape(1, 1, 1, 1))
    assert g.m == 24
    assert np.all(g.loops == 0)
    degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
    assert np.all(degrees == 3)


def test_single_row_shape_is_one_vertex():
    g = build_schreier(shape(5))
    assert g.m == 1
    assert g.loops[0] == 4


def test_laplacian_rows_sum_to_zero_and_psd():
    for parts in [(3, 2), (2, 2, 1), (1, 1, 1, 1)]:
        g = build_schreier(IntegerPartition(parts))
        lap = g.laplacian.toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.linalg.eigvalsh(lap).min() > -1e-10


# ---------------------------------------------------------------------------
# characteristic matrices


@pytest.mark.parametrize(
    "parts", [(4,), (3, 1), (2, 2), (2, 1, 1), (3, 2), (2, 2, 1)]
)
def test_characteristic_column_counts(parts):
    g = IntegerPartition(parts)
    char = build_characteristic(g)
    n = g.n
    m = multiplicity_constants(g).m
    counts = np.bincount(char.col_of, minlength=m)
    assert np.all(counts == factorial(n) // m)
    dense = char.dense()
    gram = dense.T @ dense
    assert np.array_equal(gram, (factorial(n) // m) * np.eye(m))


def test_characteristic_single_row_is_all_ones():
    char = build_characteristic(shape(4))
    assert np.all(char.col_of == 0)


def test_characteristic_matrix_worked_example():
    # hand-checked 24 x 6 matrix for the lifting {13|24} of shape [2,2],
    # rows in lexicographic order, columns reordered to our canonical order
    g = shape(2, 2)
    pi2 = OrderedSetPartition.from_blocks([(1, 3), (2, 4)])
    cmap = characteristic_column_map(g, pi2)
    example_cols = ["12|34", "13|24", "23|14", "14|23", "24|13", "34|12"]
    example = [1, 3, 0, 0, 3, 1, 2, 4, 2, 4, 5, 5, 0, 0, 1, 3, 1, 3, 4, 2, 5, 5, 2, 4]
    osps = enumerate_ordered_set_partitions(g)
    to_example = {i: example_cols.index(o.label()) for i, o in enumerate(osps)}
    assert [to_example[c] for c in cmap] == example


@pytest.mark.parametrize("n", range(2, 7))
def test_block_recursion_agrees_with_vectorized_build(n):
    for g in partitions_of(n):
        fast = build_characteristic(g)
        reference = characteristic_by_block_recursion(g)
        assert np.array_equal(fast.col_of, reference.col_of)


def test_four_one_one_recursion_block_pattern():
    # rows with the largest element last in the word split into four blocks
    # carrying the reduced shape [3,1,1] and one block each for [4,1], [4,0,1]
    g = shape(4, 1, 1)
    char = build_characteristic(g)
    words = [lex_unrank(r, 6).word for r in range(720)]
    reps = enumerate_ordered_set_partitions(g)
    for r, word in enumerate(words):
        mu = reps[char.col_of[r]]
        # the defining property: the permutation carries mu onto pi1
        assert act(Permutation(word), mu) == reading_order_partition(g)


def test_intertwining_with_permutahedron_laplacian():
    for parts in [(3, 1), (2, 2), (2, 1, 1)]:
        g = IntegerPartition(parts)
        b = build_characteristic(g).dense()
        lap_full = build_schreier(shape(1, 1, 1, 1)).laplacian.toarray()
        lap_small = build_schreier(g).laplacian.toarray()
        assert np.allclose(lap_full @ b, b @ lap_small)


def test_row_permutation_identity(rng):
    # lifting through sigma(pi1) equals the left action applied to the
    # reading-order lifting
    for parts in [(2, 2), (3, 1), (2, 1, 1)]:
        g = IntegerPartition(parts)
        pi1 = reading_order_partition(g)
        base = characteristic_column_map(g, pi1)
        for _ in range(5):
            sigma = Permutation(tuple(rng.permutation(4) + 1))
            moved = characteristic_column_map(g, act(sigma, pi1))
            perm = _left_action_map(sigma)
            assert np.array_equal(moved, base[invert_index_map(perm)])


def _left_action_map(sigma: Permutation) -> np.ndarray:
    """map[rank(b)] = rank(sigma b), built from scalar operations."""
    n = sigma.n
    out = np.empty(factorial(n), dtype=np.int64)
    from permaframe.combinatorics import lex_rank

    for r in range(factorial(n)):
        beta = lex_unrank(r, n)
        out[r] = lex_rank(sigma.compose(beta))
    return out


def test_equitable_partition_and_quotient_isomorphism():
    # classes of the equivalence induced by a lifting form an equitable
    # partition of the permutahedron whose quotient is the Schreier graph
    for parts in [(2, 2), (3, 1), (2, 1, 1)]:
        g = IntegerPartition(parts)
        pi = enumerate_ordered_set_partitions(g)[1]
        cmap = characteristic_column_map(g, pi)
        perm_graph = build_schreier(shape(1, 1, 1, 1))
        small = build_schreier(g)
        adj = perm_graph.adjacency.toarray()
        m = small.m
        counts = np.zeros((m, m), dtype=np.int64)
        quotient = np.full((m, m), -1, dtype=np.int64)
        for u in range(24):
            cu = cmap[u]
            row = np.zeros(m, dtype=np.int64)
            for v in np.nonzero(adj[u])[0]:
                if v != u:
                    row[cmap[v]] += adj[u, v]
            row[cu] += perm_graph.loops[u]
            if quotient[cu, cu] == -1:
                quotient[cu] = row
            else:
                assert np.array_equal(quotient[cu], row)  # equitable
            counts[cu] = row
        assert np.array_equal(counts, small.adjacency.toarray())


# ---------------------------------------------------------------------------
# minimal paths


@pytest.mark.parametrize("n", range(2, 7))
def test_path_lengths_equal_inversion_counts(n):
    for g in partitions_of(n):
        for path in minimal_paths(g):
            assert len(path.swaps) == inversion_count(path.target)


def test_paths_stay_in_reduced_set_and_land_on_target():
    from permaframe.combinatorics import is_reduced_representative

    for parts in [(2, 2), (3, 3), (4, 1, 1), (2, 2, 1)]:
        g = IntegerPartition(parts)
        n = g.n
        for path in minimal_paths(g):
            current = reading_order_partition(g)
            for s in path.swaps:
                from permaframe.combinatorics import adjacent_transposition

                current = act(adjacent_transposition(n, s), current)
                assert is_reduced_representative(current)
            assert current == path.target


def test_root_path_is_empty():
    paths = minimal_paths(shape(3, 2))
    assert paths[0].target == reading_order_partition(shape(3, 2))
    assert paths[0].swaps == ()


def test_four_one_one_path_count_n6():
    paths = minimal_paths(shape(4, 1, 1))
    assert len(paths) == 15
    assert sorted(len(p.swaps) for p in paths) == sorted(
        inversion_count(p.target) for p in paths
    )


def test_bfs_deterministic():
    a = minimal_paths(shape(3, 2, 1))
    b = minimal_paths(shape(3, 2, 1))
    assert [p.swaps for p in a] == [p.swaps for p in b]


# ---------------------------------------------------------------------------
# index maps, lifting and projecting


def test_swap_map_example_n3():
    maps = adjacent_swap_maps(3)
    r_identity = lex_rank(Permutation((1, 2, 3)))
    r_swapped = lex_rank(Permutation((2, 1, 3)))
    assert maps[0][r_identity] == r_swapped
    for swap_map in maps:  # the walk undoes a step by repeating it
        assert np.array_equal(swap_map[swap_map], np.arange(6))


@pytest.mark.parametrize("n", range(2, 8))
def test_swap_maps_match_relabel_oracle(n):
    assert np.array_equal(adjacent_swap_maps(n), relabeled_swap_maps(n))


def test_swap_maps_match_scalar_composition(rng):
    n = 5
    maps = adjacent_swap_maps(n)
    for i in range(1, n):
        swap = adjacent_transposition(n, i)
        for r in rng.integers(0, factorial(n), size=8):
            assert maps[i - 1][r] == lex_rank(swap.compose(lex_unrank(int(r), n)))


def test_swap_paths_compose_column_maps():
    # reindexing a column map by a swap's map moves the lifting by that swap,
    # so every minimal path carries the reading-order map to its target's
    for n in (4, 5):
        maps = adjacent_swap_maps(n)
        for g in partitions_of(n):
            root = build_characteristic(g).col_of
            for path in minimal_paths(g):
                col = root
                for s in path.swaps:
                    col = col[maps[s - 1]]
                assert np.array_equal(col, characteristic_column_map(g, path.target))


def test_project_constant_and_delta():
    g = shape(3, 2)
    base = build_characteristic(g)
    m = multiplicity_constants(g).m
    ones = np.ones(120)
    assert np.allclose(project(base.col_of, ones, m), 120 / m)
    sigma = Permutation((2, 5, 1, 3, 4))
    from permaframe.combinatorics import lex_rank, osp_index

    delta = np.zeros(120)
    delta[lex_rank(sigma)] = 1.0
    proj = project(base.col_of, delta, m)
    expected = np.zeros(m)
    expected[osp_index(act(sigma.inverse(), reading_order_partition(g)))] = 1.0
    assert np.array_equal(proj, expected)


def test_lift_is_adjoint_of_project(rng):
    g = shape(2, 2, 1)
    m = multiplicity_constants(g).m
    col = characteristic_column_map(g, minimal_paths(g)[3].target)
    f = rng.standard_normal(120)
    x = rng.standard_normal(m)
    lhs = f @ lift(col, x)
    rhs = project(col, f, m) @ x
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lifted_eigenvector_is_permutahedron_eigenvector():
    g = shape(2, 2)
    base = build_characteristic(g)
    lap_small = build_schreier(g).laplacian.toarray()
    lap_full = build_schreier(shape(1, 1, 1, 1)).laplacian.toarray()
    w, v = np.linalg.eigh(lap_small)
    for i in range(len(w)):
        lifted = lift(base.col_of, v[:, i])
        assert np.allclose(lap_full @ lifted, w[i] * lifted, atol=1e-10)


def test_intertwining_n5():
    lap_full = build_schreier(shape(1, 1, 1, 1, 1)).laplacian.toarray()
    for parts in [(3, 2), (2, 2, 1)]:
        g = IntegerPartition(parts)
        b = build_characteristic(g).dense()
        lap_small = build_schreier(g).laplacian.toarray()
        assert np.allclose(lap_full @ b, b @ lap_small)


def test_quotient_isomorphism_n5():
    g = shape(3, 2)
    pi = enumerate_ordered_set_partitions(g)[4]
    cmap = characteristic_column_map(g, pi)
    perm_graph = build_schreier(shape(1, 1, 1, 1, 1))
    small = build_schreier(g)
    adj = perm_graph.adjacency.toarray()
    m = small.m
    quotient = np.zeros((m, m), dtype=np.int64)
    for u in range(120):
        cu = cmap[u]
        row = np.zeros(m, dtype=np.int64)
        for v in np.nonzero(adj[u])[0]:
            if v != u:
                row[cmap[v]] += adj[u, v]
        row[cu] += perm_graph.loops[u]
        quotient[cu] = row
    assert np.array_equal(quotient, small.adjacency.toarray())

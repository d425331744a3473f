import itertools
from math import factorial

import numpy as np
import pytest

from permaframe.combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    enumerate_ordered_set_partitions,
    h_shapes,
    lex_rank,
    multiplicity_constants,
    partitions_of,
    reading_order_partition,
    reduced_row_words,
)
from permaframe.schreier import (
    adjacent_swap_maps,
    build_characteristic,
    build_schreier,
    build_schreier_direct,
    characteristic_column_map,
    key_powers,
    merge_maps,
    merged_rows,
    minimal_paths,
    suffix_action,
    vertex_table,
)
from permaframe.cache import FrameCache, SchreierBundle

from oracles import (
    act,
    adjacent_transposition,
    characteristic_by_block_recursion,
    csr_adjacency,
    csr_laplacian,
    inversion_count,
    invert_index_map,
    lex_unrank,
    lift,
    loop_counts,
    project,
    recursive_schreier,
    relabeled_swap_maps,
)


def shape(*parts):
    return IntegerPartition(tuple(parts))


# ---------------------------------------------------------------------------
# graph construction


@pytest.mark.parametrize("n", range(2, 8))
def test_recursive_matches_direct_edge_rule(n):
    assert build_schreier_direct is build_schreier
    for g in partitions_of(n):
        row_words, adjacency = recursive_schreier(g)
        direct = build_schreier(g)
        assert np.array_equal(row_words, direct.row_words)
        assert (adjacency != csr_adjacency(direct)).nnz == 0


def test_graph_3_2_shape():
    g = build_schreier(shape(3, 2))
    assert g.m == 10
    degrees = np.asarray(csr_adjacency(g).sum(axis=1)).ravel()
    assert np.all(degrees == 4)  # n - 1 edge slots, loops included
    assert loop_counts(g).sum() > 0


def test_permutahedron_has_no_loops():
    g = build_schreier(shape(1, 1, 1, 1))
    assert g.m == 24
    assert np.all(loop_counts(g) == 0)
    degrees = np.asarray(csr_adjacency(g).sum(axis=1)).ravel()
    assert np.all(degrees == 3)


def test_single_row_shape_is_one_vertex():
    g = build_schreier(shape(5))
    assert g.m == 1
    assert loop_counts(g)[0] == 4


def test_laplacian_rows_sum_to_zero_and_psd():
    for parts in [(3, 2), (2, 2, 1), (1, 1, 1, 1)]:
        g = build_schreier(IntegerPartition(parts))
        lap = csr_laplacian(g).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.linalg.eigvalsh(lap).min() > -1e-10


@pytest.mark.parametrize("n", range(1, 8))
def test_apply_laplacian_matches_the_sparse_laplacian(n):
    rng = np.random.default_rng(n)
    for g in partitions_of(n):
        graph = build_schreier(g)
        x = rng.standard_normal((graph.m, 3))
        assert np.abs(graph.apply_laplacian(x) - csr_laplacian(graph) @ x).max() <= 1e-13
        assert np.array_equal(loop_counts(graph), csr_adjacency(graph).diagonal())


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
        lap_full = csr_laplacian(build_schreier(shape(1, 1, 1, 1))).toarray()
        lap_small = csr_laplacian(build_schreier(g)).toarray()
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
        adj = csr_adjacency(perm_graph).toarray()
        m = small.m
        counts = np.zeros((m, m), dtype=np.int64)
        quotient = np.full((m, m), -1, dtype=np.int64)
        for u in range(24):
            cu = cmap[u]
            row = np.zeros(m, dtype=np.int64)
            for v in np.nonzero(adj[u])[0]:
                if v != u:
                    row[cmap[v]] += adj[u, v]
            row[cu] += loop_counts(perm_graph)[u]
            if quotient[cu, cu] == -1:
                quotient[cu] = row
            else:
                assert np.array_equal(quotient[cu], row)  # equitable
            counts[cu] = row
        assert np.array_equal(counts, csr_adjacency(small).toarray())


# ---------------------------------------------------------------------------
# minimal paths


@pytest.mark.parametrize("n", range(2, 7))
def test_path_lengths_equal_inversion_counts(n):
    for g in partitions_of(n):
        for path in minimal_paths(g):
            assert len(path.swaps) == inversion_count(path.target)


def test_paths_stay_in_reduced_set_and_land_on_target():
    from oracles import is_reduced_representative

    for n in range(2, 7):
        for g in partitions_of(n):
            for path in minimal_paths(g):
                current = reading_order_partition(g)
                for s in path.swaps:
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
# the suffix action


@pytest.mark.parametrize(
    "g", [g for n in range(1, 7) for g in partitions_of(n)] + list(h_shapes(7)),
    ids=IntegerPartition.label,
)
def test_suffix_action_expands_leader_maps_to_every_rank(g):
    n = g.n
    graph = build_schreier(g)
    # the walk reads only the shape's swap tree, so no eigensolve is needed
    cache = FrameCache(n, {g: SchreierBundle(g, graph, None)})
    full = dict(cache.iter_lifting_maps(g, np.arange(factorial(n))))
    for k in range(1, min(4, n) + 1):
        action = suffix_action(g, k)
        assert action.shape == (graph.m, factorial(k)) and action.dtype == np.intp
        assert np.array_equal(action[:, 0], np.arange(graph.m))
        assert np.array_equal(np.sort(action, axis=0), np.repeat(
            np.arange(graph.m)[:, None], factorial(k), axis=1
        ))
        if k >= 2:  # tau_1 swaps the last two positions
            assert np.array_equal(action[:, 1], graph.neighbors[:, n - 2])
        leaders = np.arange(factorial(n) // factorial(k)) * factorial(k)
        for t, leader_map in cache.iter_lifting_maps(g, leaders):
            assert np.array_equal(action.take(leader_map, axis=0).ravel(), full[t])


# ---------------------------------------------------------------------------
# coarse shapes read off finer ones


def merges_by_brute_force(fine, coarse) -> bool:
    """Some map from fine rows onto coarse rows adds up to the coarse sizes."""
    return len(fine) > len(coarse) and any(
        all(sum(p for p, r in zip(fine.parts, rows) if r == c) == size
            for c, size in enumerate(coarse.parts))
        for rows in itertools.product(range(len(coarse)), repeat=len(fine))
    )


MERGE_PAIRS = [
    (fine, coarse)
    for n in range(1, 7)
    for fine in partitions_of(n)
    for coarse in partitions_of(n)
    if merges_by_brute_force(fine, coarse)
]


def test_merged_rows_finds_every_coarsening():
    for n in range(1, 7):
        for fine in partitions_of(n):
            for coarse in partitions_of(n):
                rows = merged_rows(fine, coarse)
                assert (rows is not None) == merges_by_brute_force(fine, coarse)
                if rows is not None:
                    sizes = np.bincount(rows, weights=fine.parts, minlength=len(coarse))
                    assert sizes.tolist() == list(coarse.parts)


@pytest.mark.parametrize(
    "fine, coarse", MERGE_PAIRS, ids=[f"{f.label()}>{c.label()}" for f, c in MERGE_PAIRS]
)
def test_merge_maps_carry_every_rank_to_the_coarse_vertex(fine, coarse):
    # exact, over all n! ranks: the vertex map of the fine source lifting's
    # column map is the coarse lifting's column map, and the row map carries
    # the source's row word to the coarse one
    merge = merge_maps(fine, coarse)
    fine_words = reduced_row_words(fine)
    coarse_words = reduced_row_words(coarse)
    assert merge.source.shape == merge.map_index.shape == (len(coarse_words),)
    assert merge.vertex_maps.shape == (len(merge.rows), multiplicity_constants(fine).m)
    for t, word in enumerate(coarse_words):
        source = fine_words[merge.source[t]]
        rows = merge.rows[merge.map_index[t]]
        assert np.array_equal(rows[source], word)
        got = merge.vertex_maps[merge.map_index[t]][
            characteristic_column_map(fine, OrderedSetPartition(tuple(source.tolist())))
        ]
        want = characteristic_column_map(coarse, OrderedSetPartition(tuple(word.tolist())))
        assert np.array_equal(got, want)


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
    delta = np.zeros(120)
    delta[lex_rank(sigma)] = 1.0
    proj = project(base.col_of, delta, m)
    expected = np.zeros(m)
    target = act(sigma.inverse(), reading_order_partition(g))
    expected[vertex_table(g)[np.array(target.row_word) @ key_powers(g)]] = 1.0
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
    lap_small = csr_laplacian(build_schreier(g)).toarray()
    lap_full = csr_laplacian(build_schreier(shape(1, 1, 1, 1))).toarray()
    w, v = np.linalg.eigh(lap_small)
    for i in range(len(w)):
        lifted = lift(base.col_of, v[:, i])
        assert np.allclose(lap_full @ lifted, w[i] * lifted, atol=1e-10)


def test_intertwining_n5():
    lap_full = csr_laplacian(build_schreier(shape(1, 1, 1, 1, 1))).toarray()
    for parts in [(3, 2), (2, 2, 1)]:
        g = IntegerPartition(parts)
        b = build_characteristic(g).dense()
        lap_small = csr_laplacian(build_schreier(g)).toarray()
        assert np.allclose(lap_full @ b, b @ lap_small)


def test_quotient_isomorphism_n5():
    g = shape(3, 2)
    pi = enumerate_ordered_set_partitions(g)[4]
    cmap = characteristic_column_map(g, pi)
    perm_graph = build_schreier(shape(1, 1, 1, 1, 1))
    small = build_schreier(g)
    adj = csr_adjacency(perm_graph).toarray()
    m = small.m
    quotient = np.zeros((m, m), dtype=np.int64)
    for u in range(120):
        cu = cmap[u]
        row = np.zeros(m, dtype=np.int64)
        for v in np.nonzero(adj[u])[0]:
            if v != u:
                row[cmap[v]] += adj[u, v]
        row[cu] += loop_counts(perm_graph)[u]
        quotient[cu] = row
    assert np.array_equal(quotient, csr_adjacency(small).toarray())

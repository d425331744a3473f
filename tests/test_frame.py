import dataclasses
import tracemalloc
from functools import lru_cache
from math import cos, factorial, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permaframe import build_cache, frame
from permaframe.cache import FrameCache
from permaframe.combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    enumerate_ordered_set_partitions,
    hook_dimension,
    multiplicity_constants,
    partitions_of,
    rank_words,
    reduced_representatives,
    word_table,
)
from permaframe.errors import ValidationError
from permaframe.frame import (
    AtomId,
    CoefficientTable,
    Signal,
    analyze,
    analyze_with_conjugates,
    atom,
    conjugate_energy_rows,
    energy_table,
    graph_fourier,
    isotypic_project,
    reconstruct,
    schreier_projection,
    sign_flip,
    synthesize,
)
from permaframe.schreier import (
    build_characteristic,
    build_schreier,
    characteristic_column_map,
)
from permaframe.spectral import eigenvalue_key, key_to_value

from oracles import (
    all_atom_ids,
    conjugate_shape_energy,
    csr_laplacian,
    dense_oracle,
    lift,
    mallows_baseline,
    reference_analysis,
    reference_csv_text,
    reference_json_text,
    reference_synthesize,
    standard_basis_check,
)


def shape(*parts):
    return IntegerPartition(tuple(parts))


def materialize_all_atoms(cache):
    ids = [a for g in cache.shapes for a in all_atom_ids(cache, g)]
    return ids, np.column_stack([atom(cache, a) for a in ids])


def exact_eigenvalue(cache, atom_id):
    spectrum = cache.bundles[atom_id.shape].spectrum
    return spectrum.eigenvalues[spectrum.keys.index(atom_id.eigen_key)]


# ---------------------------------------------------------------------------
# atoms


def test_single_row_atom_is_normalized_constant(cache4_all):
    ids = all_atom_ids(cache4_all, shape(4))
    assert len(ids) == 1
    vec = atom(cache4_all, ids[0])
    assert np.allclose(vec, 1.0 / sqrt(24))


def test_atom_norms(cache4_all):
    # reduced-frame atoms have squared norm d/z; the full-frame scaling d/m is
    # checked below through an unscaled lift
    for g in cache4_all.shapes:
        consts = multiplicity_constants(g)
        d = hook_dimension(g)
        for a in all_atom_ids(cache4_all, g):
            vec = atom(cache4_all, a)
            assert vec @ vec == pytest.approx(d / consts.z, rel=1e-10)


def test_equal_norms_with_full_frame_scaling(cache4_all):
    # scaling a raw lifted eigenvector by sqrt(d/n!) gives squared norm d/m
    for g in cache4_all.shapes:
        consts = multiplicity_constants(g)
        d = hook_dimension(g)
        v = cache4_all.bundles[g].spectrum.vectors[:, 0]
        raw = lift(build_characteristic(g).col_of, v)
        scaled = consts.c * raw
        assert scaled @ scaled == pytest.approx(d / consts.m, rel=1e-10)


def test_atoms_are_laplacian_eigenvectors(cache4_all):
    lap = csr_laplacian(build_schreier(shape(1, 1, 1, 1)))
    for g in cache4_all.shapes:
        for a in all_atom_ids(cache4_all, g):
            vec = atom(cache4_all, a)
            lam = exact_eigenvalue(cache4_all, a)
            assert np.linalg.norm(lap @ vec - lam * vec) < 1e-8


def test_atom_smoothness_quotient(cache4_all):
    lap = csr_laplacian(build_schreier(shape(1, 1, 1, 1)))
    for g in cache4_all.shapes:
        for a in all_atom_ids(cache4_all, g):
            vec = atom(cache4_all, a)
            lam = exact_eigenvalue(cache4_all, a)
            assert (vec @ (lap @ vec)) / (vec @ vec) == pytest.approx(lam, abs=1e-8)


def test_atom_counts_match_reference_table(cache4_all, cache5_all, cache6_all):
    from permaframe.combinatorics import h_shapes

    for cache, expected in [(cache4_all, 19), (cache5_all, 131), (cache6_all, 1326)]:
        h = set(h_shapes(cache.n))
        count = sum(
            len(all_atom_ids(cache, g)) for g in cache.shapes if g in h
        )
        assert count == expected


def test_unknown_atom_rejected(cache4_all):
    ids = all_atom_ids(cache4_all, shape(3, 1))
    bad = AtomId(shape(3, 1), 123456789, 1, ids[0].lifting)
    with pytest.raises(ValidationError):
        atom(cache4_all, bad)


# ---------------------------------------------------------------------------
# analysis


def test_constant_signal_hits_only_the_top_shape(cache4_all):
    f = Signal.constant(4, 1.0)
    table = analyze(cache4_all, f)
    for atom_id, alpha in table.iter_rows():
        if atom_id.shape == shape(4):
            assert alpha == pytest.approx(sqrt(24), rel=1e-12)
        else:
            assert abs(alpha) < 1e-10


def test_delta_signal_coefficients(cache4_all):
    f = Signal.delta(Permutation.identity(4))
    table = analyze(cache4_all, f)
    for g in cache4_all.shapes:
        bundle = cache4_all.bundles[g]
        block = table.block(g)
        reps = reduced_representatives(g)
        vertex_of = {
            osp.row_word: i
            for i, osp in enumerate(enumerate_ordered_set_partitions(g))
        }
        for r in range(block.num_rows):
            for t, rep in enumerate(reps):
                expected = bundle.c_bar * bundle.spectrum.vectors[
                    vertex_of[rep.row_word], r
                ]
                assert block.alphas[r, t] == pytest.approx(expected, abs=1e-12)


def test_analysis_matches_materialized_atoms(cache4_all, rng):
    f = Signal.random(4, rng)
    ids, atoms = materialize_all_atoms(cache4_all)
    oracle = {a: float(col @ f.values) for a, col in zip(ids, atoms.T)}
    table = analyze(cache4_all, f)
    seen = dict(table.iter_rows())
    assert set(seen) == set(oracle)
    for a, alpha in seen.items():
        assert abs(alpha - oracle[a]) < 1e-12


def test_analysis_is_linear(cache4_all, rng):
    f = Signal.random(4, rng)
    g = Signal.random(4, rng)
    combo = Signal(4, 2.0 * f.values - 3.0 * g.values)
    ta = analyze(cache4_all, f)
    tb = analyze(cache4_all, g)
    tc = analyze(cache4_all, combo)
    for (ida, aa), (_idb, ab), (_idc, ac) in zip(
        ta.iter_rows(), tb.iter_rows(), tc.iter_rows()
    ):
        assert ac == pytest.approx(2.0 * aa - 3.0 * ab, abs=1e-10)


def test_row_is_the_iter_rows_entry_and_refuses_indices_outside(cache4_all, rng):
    table = analyze(cache4_all, Signal.random(4, rng))
    rows = list(table.iter_rows())
    assert len(rows) == table.row_count
    for i, row in enumerate(rows):
        assert table.row(i) == row
    for index in (-1, -len(rows), table.row_count):
        with pytest.raises(IndexError):
            table.row(index)


def test_max_eigs_row_counts(cache5_all, cache6_all):
    # per shape the truncated table holds min(2, d) * z coefficients
    from permaframe.combinatorics import h_shapes

    for cache, expected in [(cache5_all, 51), (cache6_all, 213)]:
        table = analyze(
            cache,
            Signal.constant(cache.n),
            shapes=list(h_shapes(cache.n)),
            max_eigs=2,
        )
        assert table.row_count == expected


@pytest.mark.parametrize("max_eigs", [0, -1, -3])
def test_analyze_rejects_max_eigs_below_one(cache4_all, max_eigs):
    with pytest.raises(ValidationError, match="must be at least 1"):
        analyze(cache4_all, Signal.constant(4), max_eigs=max_eigs)


@pytest.mark.parametrize("max_eigs", [0, -1, -3])
def test_filter_rejects_max_eigs_below_one(cache4_all, max_eigs):
    table = analyze(cache4_all, Signal.constant(4))
    with pytest.raises(ValidationError, match="must be at least 1"):
        table.filter(max_eigs=max_eigs)


def test_filter_takes_shapes_as_tuples_and_rejects_absent_ones(cache5_h, rng):
    # analyze accepts (3, 2) for (3,2); filter must too, not keep nothing
    f = Signal.random(5, rng)
    table = analyze(cache5_h, f)
    for shapes in ([(3, 2)], [shape(3, 2)], [(3, 2), shape(3, 2)]):
        kept = table.filter(shapes=shapes)
        assert [b.shape for b in kept.blocks] == [shape(3, 2)]
        assert np.array_equal(kept.blocks[0].alphas, table.block(shape(3, 2)).alphas)
    want = synthesize(cache5_h, analyze(cache5_h, f, shapes=[(3, 2)])).values
    assert np.array_equal(synthesize(cache5_h, table.filter(shapes=[(3, 2)])).values, want)
    one_shape = analyze(cache5_h, f, shapes=[(3, 2)])
    for absent in ([(4, 1)], [shape(4, 1)], [(3, 2), (2, 2, 1)]):
        with pytest.raises(ValidationError, match="no coefficients for shape"):
            one_shape.filter(shapes=absent)


# ---------------------------------------------------------------------------
# synthesis and projections


@pytest.mark.parametrize("n", [4, 5])
def test_round_trip_small(n, cache4_all, cache5_all, rng):
    cache = cache4_all if n == 4 else cache5_all
    f = Signal.random(n, rng)
    table = analyze(cache, f)
    assert table.total_energy() == pytest.approx(f.norm2(), rel=1e-12)
    rec = synthesize(cache, table)
    err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert err < 1e-12


@pytest.mark.parametrize("n, top_k", [(6, 3), (7, 4), (7, 2)])
def test_truncated_reconstruction_error_is_the_missing_energy(n, top_k, rng):
    # a top-K cache reconstructs the orthogonal projection onto its shapes
    # and their transposes, so the relative error is sqrt(1 - the captured,
    # transpose-completed energy fraction)
    cache = build_cache(n, "h", top_k=top_k)
    f = Signal.random(n, rng)
    direct, flipped = analyze_with_conjugates(cache, f)
    captured = (direct.total_energy() + flipped.total_energy()) / f.norm2()
    err = np.linalg.norm(reconstruct(cache, f).values - f.values) / np.linalg.norm(f.values)
    assert abs(err - sqrt(1.0 - captured)) <= 1e-13


def test_filtered_synthesis_is_projection(cache4_all, rng):
    f = Signal.random(4, rng)
    g = shape(3, 1)
    proj = isotypic_project(cache4_all, f, g)
    again = isotypic_project(cache4_all, proj, g)
    assert np.allclose(proj.values, again.values, atol=1e-12)
    residual = Signal(4, f.values - proj.values)
    assert analyze(cache4_all, residual, shapes=[g]).total_energy() < 1e-20


def test_filter_to_top_shape_gives_mean(cache4_all, rng):
    f = Signal.random(4, rng)
    projected = isotypic_project(cache4_all, f, shape(4))
    assert np.allclose(projected.values, f.values.mean())


def test_signal_in_component_projects_to_itself(cache4_all, rng):
    g = shape(2, 2)
    ids = all_atom_ids(cache4_all, g)
    combo = sum(
        rng.standard_normal() * atom(cache4_all, a) for a in ids
    )
    f = Signal(4, combo)
    proj = isotypic_project(cache4_all, f, g)
    assert np.allclose(proj.values, f.values, atol=1e-10)


def test_isotypic_components_orthogonal_and_complete(cache4_all, rng):
    f = Signal.random(4, rng)
    projections = {
        g: isotypic_project(cache4_all, f, g).values for g in cache4_all.shapes
    }
    total = sum(projections.values())
    assert np.allclose(total, f.values, atol=1e-10)
    shapes = list(projections)
    for i, a in enumerate(shapes):
        for b in shapes[i + 1 :]:
            assert abs(projections[a] @ projections[b]) < 1e-10


def test_reconstruct_through_transpose_completion(cache5_h, rng):
    f = Signal.random(5, rng)
    rec = reconstruct(cache5_h, f)
    err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert err < 1e-12


def same_blocks(a, b) -> bool:
    return [x.shape for x in a.blocks] == [y.shape for y in b.blocks] and all(
        np.array_equal(x.alphas, y.alphas) for x, y in zip(a.blocks, b.blocks)
    )


def test_one_walk_sign_trick_matches_separate_passes(cache5_h, rng):
    # carrying the flipped signal through the same walk changes no bit
    from permaframe import build_cache

    for cache in (cache5_h, build_cache(6, "h")):
        f = Signal.random(cache.n, rng)
        conj = [s for s in cache.shapes if s.transpose() not in set(cache.shapes)]
        assert conj
        direct, flipped = analyze_with_conjugates(cache, f)
        assert same_blocks(direct, analyze(cache, f))
        assert same_blocks(flipped, analyze(cache, sign_flip(f), shapes=conj))
        expected = synthesize(cache, direct).values + sign_flip(synthesize(cache, flipped)).values
        assert np.array_equal(reconstruct(cache, f).values, expected)


# (n, ranks per block).  At the default suffix length 4, n = 5, 6 and 7 each
# have a case whose last block of leaders is ragged (5 leaders 2 a block at
# n = 5; 30 leaders 4 a block at n = 6; 210 leaders 41 a block at n = 7);
# n <= 4 has one leader.  Blocks of 7 ranks at n = 7 would take seconds per
# synthesis at suffix length 1.
SYNTHESIS_CASES = [
    (1, 7), (2, 1), (3, 4), (4, 7), (4, 50), (5, 7), (5, 50),
    (6, 7), (6, 50), (6, 100), (7, 50), (7, 1000),
]


def ragged_leader_blocks(n, block, k):
    leaders = factorial(n) // factorial(min(k, n))
    per_block = max(1, block // factorial(min(k, n)))
    return leaders > per_block and leaders % per_block != 0


def test_synthesis_cases_have_ragged_leader_blocks():
    k = frame.SUFFIX_LENGTH
    for n in (5, 6, 7):
        assert any(ragged_leader_blocks(n, b, k) for m, b in SYNTHESIS_CASES if m == n)
    for k in range(1, 5):
        assert any(ragged_leader_blocks(n, b, k) for n, b in SYNTHESIS_CASES if n >= k)


@pytest.mark.parametrize("n, block", SYNTHESIS_CASES)
def test_blocked_synthesis_matches_the_reference(n, block, monkeypatch, rng):
    # neither the leader blocks (several, the last ragged) nor the suffix
    # length (1 walks every rank; it is clipped to n) changes a bit: every
    # ranking sums the same terms in the same order as one walk over all n!
    # ranks
    monkeypatch.setattr(frame, "SYNTHESIS_BLOCK", block)
    cache = build_cache(n, "h")
    f = Signal.random(n, rng)
    direct, flipped = analyze_with_conjugates(cache, f)
    assert n < 3 or (flipped.blocks and len(direct.blocks) > 1)
    top = [b.shape for b in direct.blocks[:2]]
    cases = [
        (direct,),
        (direct, flipped),
        (direct.filter(shapes=top),),
        (direct.filter(shapes=top[1:]), flipped),  # some shapes in one table only
        (direct.filter(max_eigs=2), flipped.filter(max_eigs=1)),
    ]
    expected = [reference_synthesize(cache, *tables).values for tables in cases]
    g = cache.shapes[-1]
    projection = reference_synthesize(cache, analyze(cache, f, shapes=[g])).values
    for k in range(1, 5):
        monkeypatch.setattr(frame, "SUFFIX_LENGTH", k)
        for tables, want in zip(cases, expected):
            assert np.array_equal(synthesize(cache, *tables).values, want)
        assert np.array_equal(isotypic_project(cache, f, g).values, projection)


def count_walked_ranks(monkeypatch) -> dict[IntegerPartition, int]:
    """From now on, the ranks each shape's liftings are mapped over, summed."""
    walked: dict[IntegerPartition, int] = {}
    walk = FrameCache.iter_lifting_maps

    def counting_walk(self, shape, ranks, **kwargs):
        walked[shape] = walked.get(shape, 0) + len(ranks)
        return walk(self, shape, ranks, **kwargs)

    monkeypatch.setattr(FrameCache, "iter_lifting_maps", counting_walk)
    return walked


def test_synthesis_walks_one_rank_per_suffix_block(monkeypatch, rng):
    # each shape's liftings are mapped over the n!/4! block leaders,
    # never over every rank, however the leaders are split into blocks
    monkeypatch.setattr(frame, "SYNTHESIS_BLOCK", 100)
    cache = build_cache(6, "h")
    direct, flipped = analyze_with_conjugates(cache, Signal.random(6, rng))
    walked = count_walked_ranks(monkeypatch)
    synthesize(cache, direct, flipped)
    assert walked == {g: factorial(6) // factorial(4) for g in cache.shapes}


def analysis_signals(n, rng):
    """Float and integer signals, dense and sparse: a dense one with every
    rank nonzero, one with about a third of its ranks zero, and a sparse one
    whose touched 4!-blocks are a few whole ones, a few partly filled ones
    and the first and last block, each with one rank."""
    size = factorial(n)
    whole = np.zeros(size, dtype=bool)
    blocks = max(1, size // 24)
    for b in rng.choice(blocks, size=min(blocks, 3), replace=False):
        whole[b * 24 : (b + 1) * 24] = True
    sparse = whole.copy()
    sparse[rng.choice(size, size=max(1, size // 50), replace=False)] = True
    sparse[[0, size - 1]] = True
    out = [rng.standard_normal(size), rng.integers(1, 9, size=size).astype(float)]
    out.append(np.where(rng.random(size) < 0.35, 0.0, rng.standard_normal(size)))
    out.append(np.where(rng.random(size) < 0.35, 0.0, rng.integers(1, 9, size=size)))
    out.append(np.where(sparse, rng.standard_normal(size), 0.0))
    out.append(np.where(sparse, rng.integers(1, 9, size=size), 0).astype(float))
    return [Signal(n, v) for v in out]


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_analysis_suffix_lengths_match_the_reference(n, monkeypatch, rng):
    # walking one leader per k!-block and expanding it through the suffix
    # action changes no bit against walking every nonzero (k = 1): each bin
    # sums its even and its odd ranks in rank order, and the ranks a block
    # holds outside the support add exact zeros
    cache = build_cache(n, "h")
    shapes = [cache.shapes[0], cache.shapes[-1]]
    conj = [s for s in cache.shapes if s.transpose() not in set(cache.shapes)]
    assert n < 5 or conj

    def analyses(f):
        direct, flipped = analyze_with_conjugates(cache, f)
        assert same_blocks(direct, analyze(cache, f))
        assert same_blocks(flipped, analyze(cache, sign_flip(f), shapes=conj))
        return [
            direct,
            flipped,
            analyze(cache, f, shapes=shapes),
            analyze(cache, f, max_eigs=2),
            analyze(cache, sign_flip(f), shapes=shapes[1:], max_eigs=1),
        ]

    signals = analysis_signals(n, rng)
    monkeypatch.setattr(frame, "SUFFIX_LENGTH", 1)
    expected = [analyses(f) for f in signals]
    monkeypatch.setattr(frame, "ANALYSIS_FILL", float("inf"))
    for k in range(2, 5):
        monkeypatch.setattr(frame, "SUFFIX_LENGTH", k)
        for f, want in zip(signals, expected):
            assert frame._walked_blocks(n, np.flatnonzero(f.values))[0] == min(k, n)
            for got, table in zip(analyses(f), want):
                assert same_blocks(got, table)


def test_analysis_walks_leaders_of_dense_tallies_and_nonzeros_of_sparse_ones(
    monkeypatch, rng
):
    # a tally that fills its 4!-blocks is walked once per block, n!/4! ranks,
    # even with a few zero counts; a sparse one walks its nonzeros.  Only
    # source shapes are walked, the shapes with fewer bins (2m) than
    # nonzeros that no other such shape refines, and the shapes that no
    # source refines; a coarse-only subset walks its source
    cache = build_cache(6, "h")
    dense = rng.integers(1, 9, size=factorial(6)).astype(float)
    dense[rng.choice(factorial(6), size=20, replace=False)] = 0.0
    sparse = np.zeros(factorial(6))
    sparse[rng.choice(factorial(6), size=40, replace=False)] = 1.0
    # 700 nonzeros: every shape has fewer bins, (4,1,1) and (3,2,1) refine
    # the rest; 40 nonzeros: only (6), (5,1) and (4,2) have fewer bins
    dense_walks = [shape(4, 1, 1), shape(3, 2, 1)]
    sparse_walks = [shape(5, 1), shape(4, 2), shape(4, 1, 1), shape(3, 3), shape(3, 2, 1)]
    for values, ranks, walks, coarse in (
        (dense, factorial(6) // factorial(4), dense_walks, shape(4, 1, 1)),
        (sparse, 40, sparse_walks, shape(5, 1)),
    ):
        walked = count_walked_ranks(monkeypatch)
        analyze_with_conjugates(cache, Signal(6, values))
        analyze(cache, Signal(6, values), max_eigs=1)
        assert walked == {g: 2 * ranks for g in walks}
        walked.clear()
        analyze(cache, Signal(6, values), shapes=[shape(6)])
        assert walked == {coarse: ranks}


def near_exact_counts(n, rng):
    """Integer tallies whose bins sum exactly below 2**53: a dense one with
    counts near 2**40 and a zero tally."""
    size = factorial(n)
    return [
        Signal(n, (2.0**40 + rng.integers(-9, 9, size=size)).astype(float)),
        Signal.zeros(n),
    ]


def blocks_match(got, want, exact) -> bool:
    """Equal bit for bit, or else to 1e-12 of each block's largest |alpha|."""
    if [x.shape for x in got] != [y.shape for y in want]:
        return False
    for x, y in zip(got, want):
        if exact:
            if not np.array_equal(x.alphas, y.alphas):
                return False
        elif not np.allclose(x.alphas, y.alphas, rtol=0, atol=1e-12 * np.abs(y.alphas).max()):
            return False
    return True


@pytest.mark.parametrize("kind", ["h", "all"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_derived_analysis_matches_the_per_shape_walk(n, kind, rng):
    # shapes read off a finer source's bins equal one walk per shape over
    # the nonzeros: bit for bit on integer tallies, whose bins are exact
    # integer sums, and to rounding on float signals
    cache = build_cache(n, kind)
    have = set(cache.shapes)
    conj = [s for s in cache.shapes if s.transpose() not in have]
    subsets = [[cache.shapes[0]], [cache.shapes[0], cache.shapes[-1]], cache.shapes[1:3]]
    derived = 0
    for f in analysis_signals(n, rng) + near_exact_counts(n, rng):
        exact = np.array_equal(f.values, np.round(f.values))
        plan = frame._sources(cache, np.count_nonzero(f.values))
        derived += sum(source != g for g, source in plan.items())
        direct, flipped = analyze_with_conjugates(cache, f)
        want_direct, want_flipped = reference_analysis(cache, f, cache.shapes, None, conj)
        assert blocks_match(direct.blocks, want_direct, exact)
        assert blocks_match(flipped.blocks, want_flipped, exact)
        for shapes in subsets:
            got = analyze(cache, f, shapes=shapes).blocks
            assert blocks_match(got, reference_analysis(cache, f, shapes)[0], exact)
        got = analyze(cache, f, max_eigs=2).blocks
        assert blocks_match(got, reference_analysis(cache, f, cache.shapes, 2)[0], exact)
    assert derived


def test_synthesis_rejects_malformed_blocks(cache4_all, rng):
    table = analyze(cache4_all, Signal.random(4, rng))
    b = table.blocks[2]
    assert b.z > 1

    def with_block(**changes):
        blocks = list(table.blocks)
        blocks[2] = dataclasses.replace(b, **changes)
        return CoefficientTable(4, blocks)

    extra = np.hstack([b.alphas, b.alphas[:, :1]])
    for alphas in (extra, b.alphas[:, :-1], b.alphas[:-1], b.alphas.ravel()):
        with pytest.raises(ValidationError, match="alphas"):
            synthesize(cache4_all, with_block(alphas=alphas))
        with pytest.raises(ValidationError, match="alphas"):
            synthesize(cache4_all, table, with_block(alphas=alphas))
    with pytest.raises(ValidationError, match="frame constant"):
        synthesize(cache4_all, with_block(c_bar=np.nextafter(b.c_bar, 2.0)))
    twice = CoefficientTable(4, [*table.blocks, b])
    for tables in ([twice], [table, twice], [twice, table]):
        with pytest.raises(ValidationError, match="twice"):
            synthesize(cache4_all, *tables)


def test_synthesis_allocates_no_rank_table():
    # n=9 top-5 reconstruction tables: beyond the (n!, 2) accumulator, the
    # final sign flip and the returned signal (about 9 MB together), the maps
    # hold one rank block; an (n, n!) float64 powers table alone would be 26 MB
    cache = build_cache(9, "h", top_k=5)
    rng = np.random.default_rng(5)
    values = np.zeros(factorial(9))
    values[rng.choice(factorial(9), size=2000, replace=False)] = rng.integers(1, 9, size=2000)
    direct, flipped = analyze_with_conjugates(cache, Signal(9, values))
    synthesize(cache, direct, flipped)
    tracemalloc.start()
    try:
        synthesize(cache, direct, flipped)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# ---------------------------------------------------------------------------
# energies and the graph Fourier transform


def relabeled(f: Signal, sigma: np.ndarray) -> Signal:
    """The signal of the same ballots with candidate c renamed sigma[c]."""
    words = word_table(f.n)
    rank_of = {w: r for r, w in enumerate(map(tuple, words.tolist()))}
    out = np.empty_like(f.values)
    for r, w in enumerate(sigma[words].tolist()):
        out[rank_of[tuple(w)]] = f.values[r]
    return Signal(f.n, out)


def reversed_positions(f: Signal) -> Signal:
    """The signal of the same ballots with every ranking read backwards: the
    right action of the longest permutation."""
    words = word_table(f.n)
    out = np.empty_like(f.values)
    out[rank_words(words[:, ::-1])] = f.values
    return Signal(f.n, out)


@pytest.mark.parametrize("name", ["cache4_all", "cache5_h", "cache6_all"])
def test_energies_are_invariant_under_position_reversal(name, request, rng):
    # reading rankings backwards maps the permutahedron onto itself (swap s
    # becomes swap n - s) and commutes with renaming candidates, so it keeps
    # every isotypic component and every Laplacian eigenspace, and with them
    # each (shape, eigenvalue) energy
    cache = request.getfixturevalue(name)
    for f in (
        Signal.random(cache.n, rng),
        Signal(cache.n, rng.integers(0, 9, size=factorial(cache.n)).astype(float)),
    ):
        g = reversed_positions(f)
        assert not np.array_equal(f.values, g.values)
        tol = 1e-12 * f.norm2()
        (direct_f, flipped_f), (direct_g, flipped_g) = (
            analyze_with_conjugates(cache, h) for h in (f, g)
        )
        for rows_f, rows_g in (
            (direct_f.energy_rows(), direct_g.energy_rows()),
            (conjugate_energy_rows(flipped_f), conjugate_energy_rows(flipped_g)),
        ):
            assert [r[:2] for r in rows_f] == [r[:2] for r in rows_g]
            assert np.allclose([r[2] for r in rows_f], [r[2] for r in rows_g], rtol=0, atol=tol)
        gft_f, gft_g = graph_fourier(cache, f), graph_fourier(cache, g)
        assert [k for k, _ in gft_f] == [k for k, _ in gft_g]
        assert np.allclose([e**2 for _, e in gft_f], [e**2 for _, e in gft_g], rtol=0, atol=tol)


@pytest.mark.parametrize("name", ["cache4_all", "cache5_h", "cache6_all"])
def test_energies_are_invariant_under_candidate_relabeling(name, request, rng):
    # each (shape, eigenvalue) space is closed under renaming candidates,
    # which permutes the rankings isometrically, so its energy is unchanged
    cache = request.getfixturevalue(name)
    for _ in range(3):
        f = Signal(cache.n, rng.integers(0, 9, size=factorial(cache.n)).astype(float))
        g = relabeled(f, rng.permutation(cache.n))
        tol = 1e-9 * f.norm2()
        rows_f, rows_g = analyze(cache, f).energy_rows(), analyze(cache, g).energy_rows()
        assert [r[:2] for r in rows_f] == [r[:2] for r in rows_g]
        assert np.allclose([r[2] for r in rows_f], [r[2] for r in rows_g], rtol=0, atol=tol)
        gft_f, gft_g = graph_fourier(cache, f), graph_fourier(cache, g)
        assert [k for k, _ in gft_f] == [k for k, _ in gft_g]
        assert np.allclose(
            [e**2 for _, e in gft_f], [e**2 for _, e in gft_g], rtol=0, atol=tol
        )


@lru_cache(maxsize=None)
def frame_cache(n, kind):
    return build_cache(n, kind)


relabeling_cases = st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.sampled_from(["h", "all"]),
        st.sampled_from([1.0, 0.3, 0.05]),  # share of nonzero rankings
        st.integers(0, 2**32 - 1),
    )
)


@given(relabeling_cases)
def test_energies_are_invariant_under_any_candidate_relabeling(case):
    # renaming candidates permutes the rankings isometrically and keeps each
    # (shape, eigenvalue) space, so every energy row, and every row that the
    # sign trick completes for a missing transpose, is unchanged
    sigma, kind, density, seed = case
    n = len(sigma)
    cache = frame_cache(n, kind)
    rng = np.random.default_rng(seed)
    size = factorial(n)
    f = Signal(n, np.where(rng.random(size) < density, rng.standard_normal(size), 0.0))
    g = relabeled(f, np.array(sigma))
    tol = 1e-12 * f.norm2()
    (direct_f, flipped_f), (direct_g, flipped_g) = (
        analyze_with_conjugates(cache, h) for h in (f, g)
    )
    for rows_f, rows_g in (
        (energy_table(direct_f).rows, energy_table(direct_g).rows),
        (conjugate_energy_rows(flipped_f), conjugate_energy_rows(flipped_g)),
    ):
        assert [r[:2] for r in rows_f] == [r[:2] for r in rows_g]
        assert np.allclose([r[2] for r in rows_f], [r[2] for r in rows_g], rtol=0, atol=tol)


@pytest.mark.parametrize("nonzeros", [60, 61, 120, 121])
@settings(max_examples=10)
@given(st.permutations(range(6)), st.integers(0, 2**32 - 1))
def test_derived_and_walked_shapes_agree_under_relabeling(nonzeros, sigma, seed):
    # 60/61 and 120/121 nonzeros sit on either side of the 2m thresholds of the
    # sources (4,1,1) and (3,2,1), so the relabeled signal's energies, from the
    # reference's walk of every shape, meet the original's read off a source on
    # one side and walked on the other
    cache = frame_cache(6, "h")
    coarse = {shape(4, 2): shape(4, 1, 1), shape(3, 3): shape(3, 2, 1)}
    plan = frame._sources(cache, nonzeros)
    for target, source in coarse.items():
        assert plan[target] == (source if nonzeros > 2 * cache.bundle(source).m else target)
    rng = np.random.default_rng(seed)
    values = np.zeros(factorial(6))
    values[rng.choice(factorial(6), size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
    f = Signal(6, values)
    g = relabeled(f, np.array(sigma))
    conj = [s for s in cache.shapes if s.transpose() not in set(cache.shapes)]
    direct_f, flipped_f = analyze_with_conjugates(cache, f)
    direct_g, flipped_g = (
        CoefficientTable(6, blocks)
        for blocks in reference_analysis(cache, g, cache.shapes, None, conj)
    )
    tol = 1e-12 * f.norm2()
    for rows_f, rows_g in (
        (direct_f.energy_rows(), direct_g.energy_rows()),
        (conjugate_energy_rows(flipped_f), conjugate_energy_rows(flipped_g)),
    ):
        assert [r[:2] for r in rows_f] == [r[:2] for r in rows_g]
        assert np.allclose([r[2] for r in rows_f], [r[2] for r in rows_g], rtol=0, atol=tol)


def test_dense_analysis_walks_no_rank_length_table():
    # n=9 top-5 with every rank nonzero: beyond the support and its values
    # (about 6 MB), the maps hold one index and one value per rank and
    # (n, n!/4!) arrays over the leaders; mapping every rank would hold an
    # (n, n!) float64 powers table, 26 MB
    cache = build_cache(9, "h", top_k=5)
    rng = np.random.default_rng(5)
    f = Signal(9, rng.integers(1, 9, size=factorial(9)).astype(float))
    analyze_with_conjugates(cache, f)
    tracemalloc.start()
    try:
        analyze_with_conjugates(cache, f)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_sparse_analysis_allocates_no_rank_length_array():
    # n=9 top-5 with 2,000 rankings: once the one-off tables are warm, the
    # sign-trick analysis touches only the nonzeros, never an n!-length map
    cache = build_cache(9, "h", top_k=5)
    rng = np.random.default_rng(5)
    values = np.zeros(factorial(9))
    values[rng.choice(factorial(9), size=2000, replace=False)] = rng.integers(1, 9, size=2000)
    f = Signal(9, values)
    analyze_with_conjugates(cache, f)
    tracemalloc.start()
    try:
        analyze_with_conjugates(cache, f)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < factorial(9) * 8


def test_energy_of_constant_ballot_total(cache4_all):
    c = 3.5
    f = Signal.constant(4, c)
    table = analyze(cache4_all, f)
    energies = energy_table(table)
    assert energies.shape_totals[shape(4)] == pytest.approx(
        f.total() ** 2 / factorial(4), rel=1e-12
    )
    assert energies.total == pytest.approx(f.norm2(), rel=1e-12)


def test_delta_energy_sums_to_one(cache4_all):
    f = Signal.delta(Permutation((2, 1, 4, 3)))
    table = analyze(cache4_all, f)
    assert table.total_energy() == pytest.approx(1.0, rel=1e-12)


def test_gft_constant_all_at_zero(cache4_all):
    rows = graph_fourier(cache4_all, Signal.constant(4, 2.0))
    nonzero = [(k, v) for k, v in rows if v > 1e-9]
    assert len(nonzero) == 1 and nonzero[0][0] == 0


def test_gft_matches_dense_eigenspace_projections(cache4_all, rng):
    f = Signal.random(4, rng)
    w, vecs = dense_oracle(csr_laplacian(build_schreier(shape(1, 1, 1, 1))))
    expected: dict[int, float] = {}
    for lam, col in zip(w, vecs.T):
        key = eigenvalue_key(lam)
        expected[key] = expected.get(key, 0.0) + float(col @ f.values) ** 2
    got = dict(graph_fourier(cache4_all, f))
    assert set(got) == set(expected)
    for key, norm in got.items():
        assert norm == pytest.approx(sqrt(expected[key]), abs=1e-9)


def test_gft_bipartite_reflection(cache4_all, rng):
    f = Signal.random(4, rng)
    direct = dict(graph_fourier(cache4_all, f))
    flipped = dict(graph_fourier(cache4_all, sign_flip(f)))
    top = eigenvalue_key(2.0 * 3)
    for key, norm in direct.items():
        assert flipped[top - key] == pytest.approx(norm, abs=1e-9)


def test_gft_on_h_cache_needs_full_list(cache5_h, rng):
    f = Signal.random(5, rng)
    rows = graph_fourier(cache5_h, f)
    assert sum(v * v for _k, v in rows) == pytest.approx(f.norm2(), rel=1e-9)
    partial = __import__("permaframe").build_cache(5, "h", top_k=2)
    with pytest.raises(ValidationError):
        graph_fourier(partial, f)


# ---------------------------------------------------------------------------
# the transpose-shape sign trick


def test_conjugate_identity_n5(cache5_all, rng):
    g221, g32 = shape(2, 2, 1), shape(3, 2)
    f = Signal.random(5, rng)
    direct = dict(
        (k, e)
        for _s, k, e in analyze(cache5_all, f, shapes=[g221]).energy_rows()
    )
    via_trick = dict(conjugate_shape_energy(cache5_all, f, g221))
    # when the shape itself is cached the helper answers directly; force the
    # reflected route through the transpose-reduced cache
    assert via_trick.keys() == direct.keys()
    key = [k for k in direct if abs(key_to_value(k) - 7.1774) < 5e-4][0]
    flipped = analyze(cache5_all, sign_flip(f), shapes=[g32])
    src = dict((k, e) for _s, k, e in flipped.energy_rows())
    src_key = [k for k in src if abs(key_to_value(k) - 0.8226) < 5e-4][0]
    assert direct[key] == pytest.approx(src[src_key], rel=1e-12)


def test_conjugate_helper_reflected_route(cache5_h, cache5_all, rng):
    f = Signal.random(5, rng)
    g221 = shape(2, 2, 1)
    via_h = dict(conjugate_shape_energy(cache5_h, f, g221))
    direct = dict(
        (k, e)
        for _s, k, e in analyze(cache5_all, f, shapes=[g221]).energy_rows()
    )
    assert via_h.keys() == direct.keys()
    for k in direct:
        assert via_h[k] == pytest.approx(direct[k], rel=1e-9, abs=1e-12)


def test_self_conjugate_shape_reflection(cache4_all, rng):
    # [2,2] is its own transpose: energies of the sign-flipped signal sit at
    # the reflected eigenvalues within the same shape
    f = Signal.random(4, rng)
    g = shape(2, 2)
    direct = dict((k, e) for _s, k, e in analyze(cache4_all, f, shapes=[g]).energy_rows())
    flipped = dict(
        (k, e)
        for _s, k, e in analyze(cache4_all, sign_flip(f), shapes=[g]).energy_rows()
    )
    top = eigenvalue_key(6.0)
    for k, e in direct.items():
        assert flipped[top - k] == pytest.approx(e, rel=1e-9, abs=1e-12)


def test_sign_flipped_constant_is_top_eigenvector(cache4_all):
    fbar = sign_flip(Signal.constant(4, 1.0))
    table = analyze(cache4_all, fbar)
    rows = [
        (s, k, e) for s, k, e in table.energy_rows() if e > 1e-9
    ]
    assert len(rows) == 1
    s, k, e = rows[0]
    assert s == shape(1, 1, 1, 1)
    assert key_to_value(k) == pytest.approx(6.0)
    assert e == pytest.approx(24.0, rel=1e-12)


# ---------------------------------------------------------------------------
# projected-indicator baseline


def test_mallows_coincident_projections(cache4_all, rng):
    f = Signal.random(4, rng)
    g = shape(2, 2)
    osps, coeffs = mallows_baseline(cache4_all, f, g)
    index = {o.label(): i for i, o in enumerate(osps)}
    quadruple = [
        coeffs[index["34|12"], index["12|34"]],
        coeffs[index["12|34"], index["34|12"]],
        coeffs[index["34|12"], index["34|12"]],
        coeffs[index["12|34"], index["12|34"]],
    ]
    assert np.allclose(quadruple, quadruple[0], atol=1e-10)


def test_mallows_frame_operator_is_scalar(cache4_all, rng):
    # summing coefficient-weighted projected indicators returns a multiple of
    # the isotypic projection, with the multiple independent of the signal
    g = shape(2, 2)
    osps = enumerate_ordered_set_partitions(g)
    scalars = []
    for f in (Signal.random(4, rng), Signal.random(4, rng)):
        _osps, coeffs = mallows_baseline(cache4_all, f, g)
        f_gamma = isotypic_project(cache4_all, f, g).values
        combo = np.zeros(24)
        for p, pi in enumerate(osps):
            cmap_p = characteristic_column_map(g, pi)
            for q in range(len(osps)):
                indicator = (cmap_p == q).astype(float)
                ind_proj = isotypic_project(cache4_all, Signal(4, indicator), g)
                combo += coeffs[p, q] * ind_proj.values
        ratio = combo @ f_gamma / (f_gamma @ f_gamma)
        assert np.allclose(combo, ratio * f_gamma, atol=1e-9)
        scalars.append(ratio)
    assert scalars[0] == pytest.approx(scalars[1], rel=1e-9)


def test_mallows_orthogonal_signal_gives_zero(cache4_all):
    g = shape(2, 2)
    other = all_atom_ids(cache4_all, shape(3, 1))[0]
    f = Signal(4, atom(cache4_all, other))
    _osps, coeffs = mallows_baseline(cache4_all, f, g)
    assert np.abs(coeffs).max() < 1e-10


# ---------------------------------------------------------------------------
# standard liftings and popularity semantics


def test_standard_basis_ranks(cache5_all, cache4_all):
    s32 = cache5_all.bundles[shape(3, 2)].spectrum
    assert standard_basis_check(cache5_all, shape(3, 2), s32.keys[0], 1)
    s22 = cache4_all.bundles[shape(2, 2)].spectrum
    assert standard_basis_check(cache4_all, shape(2, 2), s22.keys[0], 1)
    s4 = cache4_all.bundles[shape(4)].spectrum
    assert standard_basis_check(cache4_all, shape(4), s4.keys[0], 1)


def test_popularity_coefficients_equal_weighted_borda(cache5_all, rng):
    # coefficients on the singleton shape at the smallest eigenvalue order the
    # candidates exactly as a cosine-weighted positional count
    n = 5
    counts = rng.integers(0, 50, size=factorial(n)).astype(float)
    f = Signal(n, counts)
    g = shape(n - 1, 1)
    table = analyze(cache5_all, f, shapes=[g])
    block = table.block(g)
    reps = reduced_representatives(g)
    single_of_rep = [rep.blocks[1][0] for rep in reps]
    coeff_by_candidate = dict(zip(single_of_rep, block.alphas[0]))

    words = word_table(n)
    weights = [cos(pi * (i - 0.5) / n) for i in range(1, n + 1)]
    borda = {}
    for z in range(1, n + 1):
        positions = np.argmax(words == z - 1, axis=1)
        borda[z] = sum(
            counts[r] * weights[positions[r]] for r in range(factorial(n))
        )
    order_frame = sorted(coeff_by_candidate, key=coeff_by_candidate.get)
    order_borda = sorted(borda, key=borda.get)
    assert order_frame == order_borda


def test_lemma_equal_row_sign_relation(cache5_all, cache4_all):
    # shapes with two equal rows of length t: lifting through the row-swapped
    # partition flips the sign by (-1)^t
    cases = [
        (cache4_all, shape(2, 2), 0, 1, 2),
        (cache4_all, shape(2, 1, 1), 1, 2, 1),
        (cache5_all, shape(2, 2, 1), 0, 1, 2),
        (cache5_all, shape(3, 1, 1), 1, 2, 1),
    ]
    for cache, g, row_a, row_b, t in cases:
        bundle = cache.bundles[g]
        for rep in reduced_representatives(g)[:4]:
            blocks = list(rep.blocks)
            blocks[row_a], blocks[row_b] = blocks[row_b], blocks[row_a]
            swapped = OrderedSetPartition.from_blocks(blocks)
            cmap_a = characteristic_column_map(g, rep)
            cmap_b = characteristic_column_map(g, swapped)
            for col in range(bundle.d):
                v = bundle.spectrum.vectors[:, col]
                assert np.allclose(
                    v[cmap_a], (-1.0) ** t * v[cmap_b], atol=1e-10
                )


def test_schreier_projection_sums_to_total(cache5_all, rng):
    counts = rng.integers(0, 9, size=120).astype(float)
    f = Signal(5, counts)
    lifting = OrderedSetPartition.from_blocks([(1, 3, 4), (2, 5)])
    values = schreier_projection(cache5_all, f, shape(3, 2), lifting)
    assert values.sum() == pytest.approx(counts.sum())
    assert len(values) == 10


def projection_signals(n, rng):
    """Dense, sparse, all-zero and signed signals, the last with -0.0 entries."""
    size = factorial(n)
    picked = rng.choice(size, size=max(1, size // 40), replace=False)
    sparse = np.zeros(size)
    sparse[picked] = rng.integers(1, 9, size=len(picked))
    signed = rng.standard_normal(size)
    signed[rng.random(size) < 0.5] = -0.0
    return {
        "dense": rng.integers(1, 9, size=size).astype(float),
        "sparse": sparse,
        "zero": np.zeros(size),
        "signed": signed,
    }


@pytest.mark.parametrize("name", ["cache4_all", "cache5_all", "cache6_all"])
def test_projection_over_the_support_equals_the_full_map(name, request, rng):
    # the support's bincount is bit for bit the one over all n! ranks, on
    # every lifting of every shape, reduced or not
    cache = request.getfixturevalue(name)
    signals = projection_signals(cache.n, rng)
    for g in cache.shapes:
        m = cache.bundle(g).m
        for lifting in enumerate_ordered_set_partitions(g):
            cmap = characteristic_column_map(g, lifting)
            for kind, values in signals.items():
                got = schreier_projection(cache, Signal(cache.n, values), g, lifting)
                want = np.bincount(cmap, weights=values, minlength=m)
                assert got.tobytes() == want.tobytes(), (g.parts, lifting.label(), kind)


def test_projection_allocates_no_rank_length_array():
    # n=9, 2,000 rankings: the map covers the nonzeros only; mapping all n!
    # ranks peaks at 12 MB (rank words, keys and the column map)
    g = shape(6, 2, 1)
    cache = build_cache(9, [g])
    rng = np.random.default_rng(5)
    values = np.zeros(factorial(9))
    values[rng.choice(factorial(9), size=2000, replace=False)] = rng.integers(1, 9, size=2000)
    f = Signal(9, values)
    lifting = OrderedSetPartition.from_blocks([(2, 3, 5, 6, 8, 9), (1, 7), (4,)])
    schreier_projection(cache, f, g, lifting)
    tracemalloc.start()
    try:
        schreier_projection(cache, f, g, lifting)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_z_space_dimensions_match_oracle_intersections(cache4_all):
    # dim(W_shape ∩ U_lambda) computed from the dense eigendecomposition equals
    # d * kappa for every cached (shape, eigenvalue) pair
    w, vecs = dense_oracle(csr_laplacian(build_schreier(shape(1, 1, 1, 1))))
    keys = np.array([eigenvalue_key(v) for v in w])
    for g in cache4_all.shapes:
        spectrum = cache4_all.bundles[g].spectrum
        d = hook_dimension(g)
        for lam, key, kappa in zip(
            spectrum.eigenvalues, spectrum.keys, spectrum.kappas
        ):
            basis = vecs[:, keys == key]
            projected = np.column_stack(
                [
                    isotypic_project(cache4_all, Signal(4, col), g).values
                    for col in basis.T
                ]
            )
            rank = np.linalg.matrix_rank(projected, tol=1e-8)
            assert rank == d * kappa


def _orthonormal_atom_span(cache, g, key):
    columns = [
        atom(cache, a) for a in all_atom_ids(cache, g) if a.eigen_key == key
    ]
    mat = np.column_stack(columns)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return mat, u[:, s > 1e-10 * s[0]]


def test_per_space_parseval_against_atom_span(cache4_all, rng):
    # for each (shape, eigenvalue) the coefficient energy equals the squared
    # norm of the projection onto the materialized atom span
    f = Signal.random(4, rng)
    table = analyze(cache4_all, f)
    for g in cache4_all.shapes:
        block = table.block(g)
        for key, energy in block.energy_by_key().items():
            _atoms, basis = _orthonormal_atom_span(cache4_all, g, key)
            projected = basis.T @ f.values
            assert energy == pytest.approx(float(projected @ projected), rel=1e-9)


def test_frame_operator_is_identity_on_its_space(cache4_all, rng):
    for g in [shape(2, 2), shape(3, 1)]:
        spectrum = cache4_all.bundles[g].spectrum
        key = spectrum.keys[0]
        atoms, basis = _orthonormal_atom_span(cache4_all, g, key)
        x = basis @ rng.standard_normal(basis.shape[1])
        again = atoms @ (atoms.T @ x)
        assert np.allclose(again, x, atol=1e-10)


def test_tiny_n_end_to_end(rng):
    from permaframe import build_cache

    for n in (1, 2, 3):
        cache = build_cache(n, "all")
        f = Signal.random(n, rng)
        table = analyze(cache, f)
        assert table.total_energy() == pytest.approx(f.norm2(), rel=1e-12)
        rec = synthesize(cache, table)
        assert np.allclose(rec.values, f.values, atol=1e-12)


def test_max_eigs_synthesis_is_projection(cache4_all, rng):
    # synthesizing a truncated table lands in the selected spaces: re-analysis
    # reproduces the kept coefficients and nothing else
    f = Signal.random(4, rng)
    table = analyze(cache4_all, f, max_eigs=1)
    projected = synthesize(cache4_all, table)
    again = analyze(cache4_all, projected)
    kept = dict(table.iter_rows())
    for atom_id, alpha in again.iter_rows():
        if atom_id in kept:
            assert alpha == pytest.approx(kept[atom_id], abs=1e-10)
        else:
            assert abs(alpha) < 1e-10


def test_popularity_weights_reference_values():
    # the affine rescaling of the first path eigenvector that makes the
    # popularity ranking a positional count: reference points for n = 10
    n = 10
    weights = [
        (n - 1) * cos(pi * (i - 0.5) / n) / (2 * cos(pi / (2 * n))) + (n + 1) / 2
        for i in range(1, n + 1)
    ]
    assert [round(w, 2) for w in weights] == [
        10.0, 9.56, 8.72, 7.57, 6.21, 4.79, 3.43, 2.28, 1.44, 1.0,
    ]
    assert weights[0] == pytest.approx(10.0)
    assert weights[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# serialization


projection_cases = st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.sampled_from(partitions_of(n)),
        st.sampled_from(["counts", "floats"]),
        st.integers(0, 2**32 - 1),
    )
)


@given(projection_cases)
def test_projection_is_equivariant_under_candidate_relabeling(case):
    # renaming candidate c to sigma[c] (``relabeled``) turns the ranking w into
    # sigma[w], whose vertex under a grouping L holds at position p the row of
    # sigma[w[p]] in L: the vertex of w under L pulled back through sigma,
    # whose row word holds at c the row of sigma[c].  So the relabeled signal
    # projected through L is the original projected through the pullback
    sigma, g, kind, seed = case
    n = len(sigma)
    cache = frame_cache(n, "all")
    rng = np.random.default_rng(seed)
    size = factorial(n)
    nonzero = rng.random(size) < 0.3
    if kind == "counts":
        values = np.where(nonzero, rng.integers(1, 9, size), 0).astype(float)
    else:
        values = np.where(nonzero, rng.standard_normal(size), 0.0)
    f = Signal(n, values)
    lifting = OrderedSetPartition(
        tuple(rng.permutation(reduced_representatives(g)[0].row_word).tolist())
    )
    pullback = OrderedSetPartition(tuple(np.array(lifting.row_word)[list(sigma)].tolist()))
    got = schreier_projection(cache, relabeled(f, np.array(sigma)), g, lifting)
    want = schreier_projection(cache, f, g, pullback)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(values).sum())


def assert_serializes_like_reference(table):
    assert table.to_csv_text() == reference_csv_text(table)
    assert table.to_json_text() == reference_json_text(table)


def test_serialization_matches_reference_writers(cache5_all, rng):
    f = Signal.random(5, rng)
    table = analyze(cache5_all, f, dataset='votes "2024" \\ Zürich \u2013 draft')
    assert_serializes_like_reference(table)
    assert_serializes_like_reference(table.filter(max_eigs=1))
    empty = table.filter(shapes=[])
    assert_serializes_like_reference(empty)
    assert empty.to_csv_text() == "shape,lambda,k,partition,alpha\n"
    assert '"rows": []' in empty.to_json_text()


def test_serialization_quotes_comma_labels_at_n10():
    # at n >= 10 partition labels separate elements with commas, so they are
    # quoted in csv like the multi-part shape labels
    cache = build_cache(10, [(9, 1), (8, 1, 1)])
    rng = np.random.default_rng(10)
    values = np.zeros(factorial(10))
    values[rng.choice(factorial(10), size=100, replace=False)] = rng.integers(1, 9, size=100)
    table = analyze(cache, Signal(10, values), dataset="sparse")
    assert_serializes_like_reference(table)
    text = table.to_csv_text()
    assert '\n"8,1,1",' in text and ',"1,2,3,4,5,6,7,8|9|10",' in text


def test_streamed_tables_match_the_reference_writers(cache5_h, rng, tmp_path):
    # every writer's bytes in a file: direct and flipped tables, a shape
    # subset, truncated eigenvectors and an empty table
    f = Signal.random(5, rng)
    direct, flipped = analyze_with_conjugates(cache5_h, f, dataset="votes \u2013 2024")
    tables = [
        direct,
        flipped,
        direct.filter(shapes=[b.shape for b in direct.blocks[1:3]]),
        analyze(cache5_h, f, max_eigs=2),
        flipped.filter(max_eigs=1),
        direct.filter(shapes=[]),
    ]
    for i, table in enumerate(tables):
        for writer, reference in [
            (table.write_csv, reference_csv_text), (table.write_json, reference_json_text)
        ]:
            path = tmp_path / f"{i}-{writer.__name__}"
            with open(path, "w") as fh:
                writer(fh)
            assert path.read_bytes() == reference(table).encode()


def test_streamed_tables_hold_a_row_not_the_text(tmp_path, rng):
    # n = 7 with the full list: 6,987 rows, 0.36 MB of csv and 0.89 MB of
    # json, written one eigen-row (at most 105 atoms) at a time
    cache = build_cache(7, "h")
    table = analyze(cache, Signal.random(7, rng))
    for writer, size in [
        (table.write_csv, len(table.to_csv_text())), (table.write_json, len(table.to_json_text()))
    ]:
        with open(tmp_path / "out", "w") as fh:
            tracemalloc.start()
            try:
                writer(fh)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < size / 4

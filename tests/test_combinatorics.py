import tracemalloc
from fractions import Fraction
from itertools import permutations as iperms
from math import factorial, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permaframe.combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    block_labels,
    dominates,
    enumerate_ordered_set_partitions,
    h_shapes,
    hook_dimension,
    lex_rank,
    multiplicity_constants,
    partitions_of,
    rank_signs,
    rank_words,
    reading_order_partition,
    reduced_representatives,
    reduced_row_words,
    row_word_matrix,
    sign,
    sign_vector,
    standard_row_words,
    word_table,
)
from permaframe.errors import ResourceLimitError, ValidationError

from oracles import (
    ColumnStrictTableau,
    act,
    compose,
    equal_block_orbit,
    filtered_standard_row_words,
    inversion_count,
    identity_permutation,
    is_reduced_representative,
    kostka,
    lex_unrank,
    reference_enumeration,
    reference_label,
    standard_ordered_set_partitions,
    tableau_to_set_partition,
)


def P(*w):
    return Permutation(tuple(w))


def shape(*parts):
    return IntegerPartition(tuple(parts))


# ---------------------------------------------------------------------------
# permutations


def test_lex_rank_extremes():
    assert lex_rank(P(1, 2, 3)) == 0
    assert lex_rank(P(3, 2, 1)) == 5


def test_lex_rank_matches_enumeration_order():
    ordering = [Permutation(w) for w in iperms(range(1, 6))]
    assert lex_rank(P(2, 5, 1, 3, 4)) == ordering.index(P(2, 5, 1, 3, 4))
    for idx in (0, 17, 42, 119):
        assert lex_rank(ordering[idx]) == idx


def test_unrank_inverts_rank():
    for n in (1, 2, 3, 4, 5):
        for idx in range(factorial(n)):
            assert lex_rank(lex_unrank(idx, n)) == idx


def test_sign_values():
    assert sign(P(1, 2, 3, 4)) == 1
    assert sign(P(2, 1, 3, 4)) == -1
    assert sign(P(3, 1, 2)) == 1  # two inversions


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))


def test_word_table_matches_scalar_rank():
    words = word_table(5)
    assert words.shape == (120, 5)
    for idx in (0, 3, 59, 119):
        assert tuple(words[idx] + 1) == lex_unrank(idx, 5).word
    assert np.array_equal(rank_words(words), np.arange(120))


def test_sign_vector_matches_scalar_sign():
    signs = sign_vector(4)
    for idx in range(24):
        assert signs[idx] == sign(lex_unrank(idx, 4))


def test_sign_vector_is_built_from_leader_and_suffix_signs():
    # the table is rank_signs over every rank, but rank_signs itself runs only
    # over the 10!/4! block leaders: over all 10! ranks its int32
    # temporaries peaked at 73 MB, against the table's own 3.6 MB
    for n in range(1, 9):
        signs = sign_vector(n)
        assert signs.dtype == np.int8 and not signs.flags.writeable
        assert np.array_equal(signs, rank_signs(n, np.arange(factorial(n))))
    sign_vector.cache_clear()
    tracemalloc.start()
    try:
        sign_vector(10)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sign_vector.cache_clear()
    assert peak < 8e6


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, factorial(n) - 1), max_size=30))
    )
)
def test_rank_signs_match_the_sign_table(case):
    n, ranks = case
    signs = rank_signs(n, np.array(ranks, dtype=np.int64))
    assert signs.dtype == np.int8
    assert np.array_equal(signs, sign_vector(n)[np.array(ranks, dtype=np.int64)])
    assert signs.tolist() == [sign(lex_unrank(r, n)) for r in ranks]


# ---------------------------------------------------------------------------
# partitions and dominance


def test_dominance_paper_examples():
    assert dominates(shape(4, 2), shape(4, 1, 1))
    assert dominates(shape(4, 2), shape(3, 3))
    assert not dominates(shape(4, 1, 1), shape(3, 3))
    assert not dominates(shape(3, 3), shape(4, 1, 1))
    assert not dominates(shape(3, 3), shape(3, 3))


@pytest.mark.parametrize("n", range(1, 9))
def test_dominance_is_strict_partial_order(n):
    shapes = partitions_of(n)
    for a in shapes:
        assert not dominates(a, a)
        for b in shapes:
            if dominates(a, b):
                assert not dominates(b, a)
            for c in shapes:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_hook_dimensions_n6():
    expected = {
        (6,): 1,
        (5, 1): 5,
        (4, 2): 9,
        (4, 1, 1): 10,
        (3, 3): 5,
        (3, 2, 1): 16,
    }
    for parts, d in expected.items():
        assert hook_dimension(IntegerPartition(parts)) == d
    assert hook_dimension(shape(1, 1, 1, 1, 1)) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_squares_sum_to_factorial(n):
    assert sum(hook_dimension(g) ** 2 for g in partitions_of(n)) == factorial(n)


def test_multiplicity_constants():
    assert multiplicity_constants(shape(3, 2)).m == 10
    assert multiplicity_constants(shape(2, 2)).z == 3
    consts = multiplicity_constants(shape(4, 2, 2, 2, 1))
    assert consts.z * factorial(3) == consts.m
    for g in partitions_of(5):
        c = multiplicity_constants(g)
        assert c.c_bar == pytest.approx(sqrt(c.m / c.z) * c.c, rel=1e-14)


def test_exact_arithmetic_up_to_16():
    consts = multiplicity_constants(shape(8, 8))
    assert consts.m == factorial(16) // (factorial(8) * factorial(8))
    assert consts.z * 2 == consts.m
    with pytest.raises(ResourceLimitError):
        partitions_of(17)


# ---------------------------------------------------------------------------
# ordered set partitions


def test_enumeration_order_and_counts():
    osps = enumerate_ordered_set_partitions(shape(2, 1))
    assert [o.label() for o in osps] == ["12|3", "13|2", "23|1"]
    two_two = enumerate_ordered_set_partitions(shape(2, 2))
    assert len(two_two) == 6
    assert two_two[0] == reading_order_partition(shape(2, 2))
    row_words = [o.row_word for o in two_two]
    assert row_words == sorted(row_words)


def test_reduced_representatives():
    reps = reduced_representatives(shape(2, 2))
    assert [r.label() for r in reps] == ["12|34", "13|24", "14|23"]
    assert len(reduced_representatives(shape(4, 1))) == 5  # distinct parts: z = m
    g = shape(4, 1, 1)
    assert len(reduced_representatives(g)) == 15
    assert reduced_representatives(g)[0] == reading_order_partition(g)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_matches_the_object_reference(n):
    # every shape through n = 8, the transpose-reduced lists at n = 9 and 10
    for g in partitions_of(n) if n <= 8 else h_shapes(n):
        osps = reference_enumeration(g)
        words = row_word_matrix(g)
        assert words.dtype == np.int8 and not words.flags.writeable
        assert np.array_equal(words, np.array([o.row_word for o in osps]).reshape(len(osps), n))
        if n <= 7:  # the objects are built from the matrix
            assert enumerate_ordered_set_partitions(g) == osps
        reps = tuple(filter(is_reduced_representative, osps))
        assert reduced_representatives(g) == reps
        reduced = reduced_row_words(g)
        assert reduced.dtype == np.int8 and not reduced.flags.writeable
        assert reduced.tolist() == [list(o.row_word) for o in reps]
        standard = standard_row_words(g)
        assert standard.dtype == np.int8
        assert standard.tolist() == [list(o.row_word) for o in standard_ordered_set_partitions(g)]
        assert block_labels(words) == [reference_label(o) for o in osps]
        assert block_labels(reduced) == [reference_label(o) for o in reps]


@pytest.mark.parametrize("n", range(1, 10))
def test_standard_row_words_match_the_filter(n):
    # the prefix extension that lets a row grow only while it is shorter than
    # the row above gives the filter's words, in its order, for every shape
    for g in partitions_of(n):
        standard = standard_row_words(g)
        assert standard.dtype == np.int8
        assert np.array_equal(standard, filtered_standard_row_words(g))


def test_orbit_reconstruction_covers_everything():
    for g in (shape(2, 2), shape(2, 2, 1), shape(3, 1, 1)):
        consts = multiplicity_constants(g)
        seen = []
        for rep in reduced_representatives(g):
            orbit = equal_block_orbit(rep)
            assert len(orbit) == consts.m // consts.z
            seen.extend(orbit)
        assert sorted(o.row_word for o in seen) == [
            o.row_word for o in enumerate_ordered_set_partitions(g)
        ]


def test_act_paper_example():
    sigma = P(2, 5, 4, 3, 1)
    pi = OrderedSetPartition.from_blocks([(2, 4, 5), (1, 3)])
    assert act(sigma, pi).label() == "135|24"
    assert act(identity_permutation(5), pi) == pi
    assert act(sigma, act(sigma.inverse(), pi)) == pi


def test_act_is_left_action(rng):
    g = shape(3, 2, 1)
    osps = enumerate_ordered_set_partitions(g)
    for _ in range(20):
        s = Permutation(tuple(rng.permutation(6) + 1))
        t = Permutation(tuple(rng.permutation(6) + 1))
        pi = osps[rng.integers(len(osps))]
        assert act(compose(s, t), pi) == act(s, act(t, pi))


def test_inversion_count_examples():
    assert inversion_count(reading_order_partition(shape(3, 2))) == 0
    assert inversion_count(OrderedSetPartition.from_blocks([(3, 4), (1, 2)])) == 4
    assert inversion_count(OrderedSetPartition.from_blocks([(1, 4), (2, 3)])) == 2


def test_block_label_round_trip():
    pi = OrderedSetPartition.from_blocks([(2, 4, 5), (1, 3)])
    assert pi.label() == "245|13"
    assert OrderedSetPartition.parse_label("245|13", 5) == pi
    big = OrderedSetPartition.from_blocks([(1, 2, 4, 5, 6, 7, 9, 10), (3, 8)])
    assert big.label() == "1,2,4,5,6,7,9,10|3,8"
    assert OrderedSetPartition.parse_label(big.label(), 10) == big
    # digit form with 0 standing for candidate 10
    assert OrderedSetPartition.parse_label("12456790|38", 10) == big
    with pytest.raises(ValidationError):
        OrderedSetPartition.parse_label("12|3", 4)


@pytest.mark.parametrize("n, top_k", [(10, None), (11, 8), (12, 8)])
def test_printed_labels_parse_back(n, top_k):
    # from n = 10 a one-element block is printed without a comma
    for g in h_shapes(n, top_k):
        words = reduced_row_words(g)
        for word, label in zip(words.tolist(), block_labels(words)):
            assert OrderedSetPartition.parse_label(label, n).row_word == tuple(word), label


def test_the_all_singleton_label_at_ten_parses_in_both_forms():
    singletons = OrderedSetPartition(tuple(range(10)))
    assert singletons.label() == "1|2|3|4|5|6|7|8|9|10"
    assert OrderedSetPartition.parse_label(singletons.label(), 10) == singletons
    assert OrderedSetPartition.parse_label("1|2|3|4|5|6|7|8|9|0", 10) == singletons


@st.composite
def ordered_set_partitions(draw):
    n = draw(st.integers(1, 16))
    order = draw(st.permutations(range(1, n + 1)))
    sizes = draw(st.sampled_from(partitions_of(n))).parts
    ends = np.cumsum(sizes).tolist()
    return OrderedSetPartition.from_blocks(
        [sorted(order[end - size : end]) for size, end in zip(sizes, ends)]
    )


@given(ordered_set_partitions())
def test_labels_round_trip(pi):
    assert OrderedSetPartition.parse_label(pi.label(), pi.n) == pi


@pytest.mark.parametrize(
    "label, n", [("13|2|x", 4), ("1,3|2|x", 4), ("1,2,3,4,5,6,7,8,9|1x", 10), ("1|2|-", 11)]
)
def test_a_label_with_a_bad_element_is_a_validation_error(label, n):
    with pytest.raises(ValidationError, match="is not a block label"):
        OrderedSetPartition.parse_label(label, n)


# ---------------------------------------------------------------------------
# tableaux and Kostka numbers


def test_kostka_paper_values():
    assert kostka(shape(4, 2, 2, 1), shape(5, 4))[0] == 3
    assert kostka(shape(3, 2, 1), shape(5, 1))[0] == 2
    assert kostka(shape(3, 3), shape(2, 2, 2))[0] == 0  # no weak dominance


@pytest.mark.parametrize("n", range(1, 7))
def test_kostka_diagonal_is_one(n):
    for g in partitions_of(n):
        count, tableaux = kostka(g, g)
        assert count == 1
        assert tableau_to_set_partition(tableaux[0]) == reading_order_partition(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_kostka_dimension_identity(n):
    # m_gamma = sum over weakly dominating nu of K[gamma, nu] * d_nu
    for g in partitions_of(n):
        total = sum(
            kostka(g, nu)[0] * hook_dimension(nu) for nu in partitions_of(n)
        )
        assert total == multiplicity_constants(g).m


def test_tableau_set_partitions_for_5_4():
    count, tableaux = kostka(shape(4, 2, 2, 1), shape(5, 4))
    labels = [tableau_to_set_partition(t).label() for t in tableaux]
    assert labels == ["1234|56|78|9", "1234|67|58|9", "1234|67|89|5"]
    # the second filling puts element 5 in row 3
    assert tableau_to_set_partition(tableaux[1]).row_word[4] == 2


def test_column_strict_validation():
    with pytest.raises(ValidationError):
        ColumnStrictTableau(shape(2, 2), shape(2, 2), ((1, 1), (1, 2)))


# ---------------------------------------------------------------------------
# transpose-reduced shape lists


def test_h_shapes_small():
    assert [s.parts for s in h_shapes(4)] == [(4,), (3, 1), (2, 2)]
    assert len(h_shapes(10)) == 22
    assert sum(
        hook_dimension(s) * multiplicity_constants(s).z for s in h_shapes(4)
    ) == 19


def test_h_shapes_truncation():
    assert [s.parts for s in h_shapes(10, 3)] == [(10,), (9, 1), (8, 2)]
    with pytest.raises(ValidationError):
        h_shapes(5, 0)


def test_standard_partitions_counts():
    for g in (shape(3, 2), shape(2, 2), shape(3, 1, 1)):
        assert len(standard_ordered_set_partitions(g)) == hook_dimension(g)


def test_constant_energy_is_exact_fraction():
    # (sum of counts)^2 / n! as an exact rational, reused by the ballot tests
    assert Fraction(5738**2, 120) == Fraction(32924644, 120)


def test_reduced_lifting_and_atom_count_table():
    # (sum of z, sum of d*z) over the transpose-reduced shapes, n = 3..12,
    # plus the truncated columns at n = 15
    expected = {
        3: (4, 7), 4: (8, 19), 5: (26, 131), 6: (107, 1326), 7: (295, 6987),
        8: (1570, 96895), 9: (5507, 843313), 10: (34427, 18004348),
        11: (139877, 181831409), 12: (823242, 3657722234),
    }
    for n, (z_total, dz_total) in expected.items():
        shapes = h_shapes(n)
        assert sum(multiplicity_constants(s).z for s in shapes) == z_total
        assert (
            sum(hook_dimension(s) * multiplicity_constants(s).z for s in shapes)
            == dz_total
        )
    top8 = h_shapes(15, 8)
    assert sum(hook_dimension(s) * multiplicity_constants(s).z for s in top8) == 2562211
    assert (
        sum(min(2, hook_dimension(s)) * multiplicity_constants(s).z for s in top8)
        == 7731
    )


def test_full_dictionary_sizes_n10():
    # every-shape atom counts at n = 10: the unreduced dictionary, the reduced
    # one, and the 22-of-42 transpose-reduced shape count
    shapes = partitions_of(10)
    assert len(shapes) == 42
    assert sum(
        hook_dimension(g) * multiplicity_constants(g).m for g in shapes
    ) == 419571370
    assert sum(
        hook_dimension(g) * multiplicity_constants(g).z for g in shapes
    ) == 44711456
    g73 = shape(7, 3)
    assert multiplicity_constants(g73).z == 120
    assert hook_dimension(g73) * multiplicity_constants(g73).z == 9000

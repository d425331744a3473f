from fractions import Fraction
from itertools import permutations as iperms
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permaframe.ballots import (
    BallotFile,
    load_candidate_names,
    parse_ballots,
    serialize_ballots,
    tally,
)
from permaframe.combinatorics import Permutation, lex_rank
from permaframe.errors import ResourceLimitError, ValidationError
from permaframe.frame import Signal


def test_parse_minimal_file():
    ballots = parse_ballots("n=3\n2 1 3,5\n")
    assert ballots.n == 3
    assert ballots.records == [(Permutation((2, 1, 3)), 5)]
    assert ballots.total() == 5


def test_parse_comments_and_blanks():
    text = "# election\nn=3\n\n1 2 3,2  # winner\n3 2 1,1\n"
    ballots = parse_ballots(text)
    assert ballots.total() == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=3\n1 1 2,3\n", "not a permutation"),
        ("n=3\n1 2,3\n", "complete rankings"),
        ("n=3\n1 2 3,-1\n", "negative"),
        ("n=3\n1 2 3\n", "count"),
        ("1 2 3,1\n", "header"),
        ("", "header"),
        ("n=3\n1 2 x,1\n", "token"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValidationError) as err:
        parse_ballots(text)
    assert fragment in str(err.value)


def test_serialize_round_trip():
    ballots = parse_ballots("n=4\n2 1 3 4,7\n4 3 2 1,1\n2 1 3 4,2\n")
    again = parse_ballots(serialize_ballots(ballots))
    assert again.n == ballots.n
    assert again.records == ballots.records


def test_tally_accumulates_duplicates():
    ballots = parse_ballots("n=3\n2 1 3,7\n2 1 3,2\n1 2 3,1\n")
    signal = tally(ballots)
    assert signal.values[lex_rank(Permutation((2, 1, 3)))] == 9
    assert signal.values[0] == 1
    assert signal.total() == 10


def test_tally_empty_and_delta():
    assert tally(parse_ballots("n=3\n")).norm2() == 0.0
    delta = tally(parse_ballots("n=4\n1 2 3 4,1\n"))
    assert delta.values[0] == 1.0
    assert delta.norm2() == 1.0


def test_tally_is_linear_in_counts():
    a = parse_ballots("n=3\n2 1 3,4\n3 1 2,1\n")
    doubled = BallotFile(3, [(r, 2 * c) for r, c in a.records], "x")
    assert np.array_equal(2 * tally(a).values, tally(doubled).values)


@st.composite
def ballot_files(draw):
    n = draw(st.integers(1, 7))
    records = draw(
        st.lists(
            st.tuples(st.permutations(range(1, n + 1)), st.integers(0, 10**6)),
            max_size=40,
        )
    )
    # repeat a prefix so that every nonempty file has duplicate rankings
    records += records[: (len(records) + 1) // 2]
    return BallotFile(n, [(Permutation(tuple(w)), c) for w, c in records])


@given(ballot_files())
@example(BallotFile(5, []))
def test_tally_matches_per_record_accumulation(ballots):
    expected = np.zeros(factorial(ballots.n))
    for ranking, count in ballots.records:
        expected[lex_rank(ranking)] += count
    assert np.array_equal(tally(ballots).values, expected)


def synthetic_full_ballot_file(n: int, total: int) -> BallotFile:
    """All n! rankings with deterministic nonnegative counts summing to total."""
    rankings = [Permutation(w) for w in iperms(range(1, n + 1))]
    base, extra = divmod(total, len(rankings))
    records = [
        (r, base + (1 if i < extra else 0)) for i, r in enumerate(rankings)
    ]
    return BallotFile(n, records, f"synthetic-{total}")


def test_apa_sized_file_accepted():
    ballots = synthetic_full_ballot_file(5, 5738)
    assert len(ballots.records) == 120
    assert ballots.total() == 5738
    text = serialize_ballots(ballots)
    assert parse_ballots(text).total() == 5738


def test_constant_component_energy_law(cache5_all):
    # the top-shape energy is (total votes)^2 / n! regardless of the ballots
    from permaframe.combinatorics import IntegerPartition
    from permaframe.frame import analyze

    ballots = synthetic_full_ballot_file(5, 5738)
    signal = tally(ballots)
    table = analyze(cache5_all, signal, shapes=[IntegerPartition((5,))])
    exact = Fraction(5738**2, factorial(5))
    assert table.total_energy() == pytest.approx(float(exact), rel=1e-12)


def test_load_candidate_names(tmp_path):
    path = tmp_path / "names.json"
    path.write_text('{"1": "Shrimp", "2": "Sea eel"}')
    assert load_candidate_names(path) == {1: "Shrimp", 2: "Sea eel"}
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        load_candidate_names(bad)


def test_dense_signals_refused_before_allocating():
    # 13! doubles would be about 50 GB
    with pytest.raises(ResourceLimitError):
        Signal.zeros(13)
    ballots = parse_ballots("n=13\n" + " ".join(map(str, range(1, 14))) + ",1\n")
    with pytest.raises(ResourceLimitError):
        tally(ballots)

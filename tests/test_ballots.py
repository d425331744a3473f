import codecs
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import permutations as iperms
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from permaframe import ballots as ballots_mod
from permaframe.ballots import (
    BallotFile,
    load_candidate_names,
    parse_ballots,
    read_ballot_file,
    tally,
)
from permaframe.combinatorics import Permutation, lex_rank
from permaframe.errors import ResourceLimitError, ValidationError
from permaframe.frame import Signal

from oracles import ballot_file, reference_parse_ballots, serialize_ballots


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
    doubled = BallotFile(3, a.words, 2 * a.counts, "x")
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
    return ballot_file(n, [(Permutation(tuple(w)), c) for w, c in records])


@given(ballot_files())
@example(ballot_file(5, []))
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
    return ballot_file(n, records, f"synthetic-{total}")


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


# ---------------------------------------------------------------------------
# the array parser against the line-by-line reference


@st.composite
def ballot_lines(draw):
    """(n, lines, record_at): the lines of a valid ballot file, where a record
    is [lead, candidate tokens, gap, comma pad, count, tail] and every other
    line a string (header, comment or blank), and the records' indices."""
    n = draw(st.integers(1, 12))
    words = draw(st.lists(st.permutations([str(c) for c in range(1, n + 1)]), max_size=25))
    words += words[: (len(words) + 1) // 2]  # duplicate rankings
    counts = st.one_of(st.integers(0, 10**6), st.integers(2**62, 2**70))
    pad = st.sampled_from(["", " ", "\t", " \t "])
    records = [
        [draw(pad), list(word), draw(st.sampled_from([" ", "  ", "\t", " \t"])),
         draw(pad), str(draw(counts)), draw(st.sampled_from(["", " ", "  # note"]))]
        for word in words
    ]
    filler = st.sampled_from(["", "   ", "# a comment", "\t# 1 2,3"])
    lines = draw(st.lists(filler, max_size=2)) + [f"n={n}" + draw(st.sampled_from(["", " # head"]))]
    record_at = []
    for record in records:
        lines += draw(st.lists(filler, max_size=1))
        record_at.append(len(lines))
        lines.append(record)
    return n, lines, record_at


def render(lines, newline):
    def text(line):
        if isinstance(line, str):
            return line
        lead, tokens, gap, comma_pad, count, tail = line
        return f"{lead}{gap.join(tokens)}{comma_pad},{comma_pad}{count}{tail}"

    return newline.join(map(text, lines)) + newline


def read_text_as_file(text: str) -> BallotFile:
    """``read_ballot_file`` of the text written as UTF-8 bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "votes.txt"
        path.write_bytes(text.encode("utf-8"))
        return read_ballot_file(path)


# the text parsed as a string, and read back from a file
PARSERS = [parse_ballots, read_text_as_file]


def assert_parses_like_the_reference(text: str, n: int | None = None) -> None:
    ref_n, records = reference_parse_ballots(text)
    for parse in PARSERS:
        ballots = parse(text)
        assert ballots.n == ref_n == (n or ref_n)
        assert ballots.words.shape == (len(records), ref_n)
        assert ballots.words.tolist() == [list(r.word) for r, _c in records]
        assert ballots.counts.tolist() == [c for _r, c in records]
        assert ballots.total() == sum(c for _r, c in records)
        assert ballots.records == records


def assert_refused_like_the_reference(text: str) -> str:
    with pytest.raises(ValidationError) as want:
        reference_parse_ballots(text)
    for parse in PARSERS:
        with pytest.raises(ValidationError) as got:
            parse(text)
        assert str(got.value) == str(want.value)
    return str(want.value)


@given(ballot_lines(), st.sampled_from(["\n", "\r\n"]), st.booleans())
@example((3, ["n=3"], []), "\n", True)
def test_parser_matches_the_reference(case, newline, final_break):
    n, lines, _ = case
    text = render(lines, newline)
    assert_parses_like_the_reference(text if final_break else text[: -len(newline)], n)


def _corrupt(record, kind):
    lead, tokens, gap, comma_pad, count, tail = record
    tokens = list(tokens)
    if kind == "missing-comma":
        return f"{lead}{gap.join(tokens)}{comma_pad}{count}{tail}"
    if kind == "semicolon-for-comma":
        return f"{lead}{gap.join(tokens)} ; {count}{tail}"
    if kind == "bad-token":
        tokens[-1] = "x" + tokens[-1]
    elif kind == "short-ranking":
        tokens.pop()
    elif kind == "repeated-candidate":
        tokens[0] = tokens[-1] if len(tokens) > 1 else "2"
    elif kind == "bad-count":
        count = count + ".5"
    elif kind == "negative-count":
        count = "-" + count
    return [lead, tokens, gap, comma_pad, count, tail]


ERROR_KINDS = [
    "missing-comma",
    "semicolon-for-comma",
    "bad-token",
    "short-ranking",
    "repeated-candidate",
    "bad-count",
    "negative-count",
]


@given(ballot_lines(), st.sampled_from(["\n", "\r\n"]), st.data())
def test_parse_errors_match_the_reference(case, newline, data):
    n, lines, record_at = case
    assume(record_at)
    # one or two bad lines, each of any kind; the first one is reported
    for at in data.draw(st.lists(st.sampled_from(record_at), min_size=1, max_size=2, unique=True)):
        kind = data.draw(st.sampled_from(ERROR_KINDS))
        if kind == "negative-count" and lines[at][4] == "0":
            kind = "bad-count"  # "-0" is a valid count
        lines[at] = _corrupt(lines[at], kind)
    message = assert_refused_like_the_reference(render(lines, newline))
    assert message.startswith("line ")


@pytest.mark.parametrize("kind", ERROR_KINDS)
def test_each_error_kind_names_its_line(kind):
    lines = ["n=3", "# votes", ["", ["1", "2", "3"], " ", "", "4", ""]]
    lines.append(_corrupt(["", ["2", "1", "3"], " ", "", "2", ""], kind))
    text = render(lines, "\n")
    with pytest.raises(ValidationError, match="^line 4: ") as got:
        parse_ballots(text)
    with pytest.raises(ValidationError) as want:
        reference_parse_ballots(text)
    assert str(got.value) == str(want.value)


def test_counts_beyond_int64_stay_exact():
    big = 2**64 + 1  # wraps to 1 in uint64 and does not fit int64
    ballots = parse_ballots(f"n=3\n1 2 3,{big}\n2 1 3,{2**63 - 1}\n1 2 3,3\n")
    assert ballots.counts.tolist() == [big, 2**63 - 1, 3]
    assert ballots.total() == big + 2**63 + 2
    assert parse_ballots(serialize_ballots(ballots)).counts.tolist() == [big, 2**63 - 1, 3]
    assert tally(ballots).values[0] == float(big) + 3.0
    # a sum past int64 of counts that each fit stays exact too
    assert parse_ballots(f"n=2\n1 2,{2**62}\n2 1,{2**62}\n1 2,{2**62}\n").total() == 3 * 2**62


@pytest.mark.parametrize("text", ["n=3\n1 2 3,4\n2 1 3,5\n", "# vote é\r\nn=3\r\n3 1 2,7"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, text):
    # as Windows editors start UTF-8 files; the files take both parse paths
    want = parse_ballots(text)
    path = tmp_path / "bom.txt"
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    for got in (parse_ballots("\ufeff" + text), read_ballot_file(path)):
        assert np.array_equal(got.words, want.words)
        assert np.array_equal(got.counts, want.counts)
    with pytest.raises(ValidationError, match="^line 1: "):
        parse_ballots("\ufeff\ufeff" + text)


def test_words_hold_every_candidate_count():
    n = 200
    word = list(range(n, 0, -1))
    ballots = parse_ballots(f"n={n}\n" + " ".join(map(str, word)) + ",7\n")
    assert ballots.words.tolist() == [word]
    assert ballots.records == [(Permutation(tuple(word)), 7)]
    # in int8, 356 would wrap to 100 and complete the ranking
    text = "n=100\n" + " ".join(map(str, range(1, 100))) + " 356,1\n"
    with pytest.raises(ValidationError, match="^line 2: not a permutation"):
        parse_ballots(text)


def test_header_n_is_bounded_by_the_text():
    # the header alone must not size any work: an empty body or a short
    # record under a huge n is answered without n-length allocations
    n = 10**9
    ballots = parse_ballots(f"n={n}\n# no records\n")
    assert ballots.words.shape == (0, n)
    assert ballots.counts.shape == (0,)
    assert ballots.total() == 0
    text = f"n={n}\n1 2 3,1\n"
    with pytest.raises(ValidationError, match="^line 2: ranking lists 3 of") as got:
        parse_ballots(text)
    with pytest.raises(ValidationError) as want:
        reference_parse_ballots(text)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValidationError, match="^line 1: n=.* is too large"):
        parse_ballots(f"n={10**30}\n")


@pytest.mark.parametrize("token", ["0", "4", "257", "-253", str(2**64 + 1)])
def test_out_of_range_candidates_are_refused(token):
    # checked as Python ints, before any narrowing cast could wrap them
    text = f"n=3\n1 2 3,1\n{token} 2 3,1\n"
    with pytest.raises(ValidationError, match="^line 3: ") as got:
        parse_ballots(text)
    with pytest.raises(ValidationError) as want:
        reference_parse_ballots(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n+1 2 3,4\n",  # a signed candidate
        "n=3\n01 2 3,4\n2 1 3,007\n",  # leading zeros
        "n=3\n1 2 3,-0\n",  # a count of minus zero
        "n=10\n1_0 9 8 7 6 5 4 3 2 1,5\n",  # an underscore in a number
        "n=3\n1\u00a02 3,4\n",  # a no-break space between candidates
        "n=3\n\u0663 2 1,4\n",  # an Arabic-Indic three
        "n=\u0663\n3 2 1,4\n",  # ... in the header
        "n=3\n1 2 3,4\x0b2 1 3,5\n",  # a vertical tab ends a line
        "n=3\n# c\x0b1 2 3,4\n",  # ... and a comment
        "n=3\n1\x1f2 3,4\n",  # a separator that str.split takes as blank
        "\u2028n=3\n1 2 3,4\u20282 1 3,1\n",  # a Unicode line separator
        "# Zo\u00eb\nn=3\n1 2 3,4 # caf\u00e9\n",  # non-ASCII comments
        "n=3\r1 2 3,4\r\r\n3 2 1,2",  # old Mac line breaks, no final one
        "\n  # votes\n\n n=3 # header\n\t1 2 3 , 4\n",  # header after blanks
    ],
)
def test_inputs_off_the_plain_alphabet_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n1 2 3,4,5\n",
        "n=3\n1 2 3,,4\n",
        "n=3\n1 2 3,\n",
        "n=3\n1 2 3 4\n",
        "n=3\n1 2,3 4\n",
        "n=3\n1 2 3,4\n, 1 2 3\n",
        "n=3\n1 2 3,4 5\n",
        "n=3 1 2 3,4\n",
        "n=3\n1 2 3\u00a0,4\u00a05\n",
        "n=3\n1 2 3,4\n1 2 3,4\x0c,5\n",
        "# only\n\n# comments\n",
        "n=0\n",
        "n=-3\n",
        "n= \n",
    ],
)
def test_malformed_files_are_refused_like_the_reference(text):
    assert_refused_like_the_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n",
        "n=3",
        "n=1\n1,0\n1,7",
        "# votes\r\n\r\n  n=3  # three\r\n1 2 3,4\r\n\t3\t2 1 , 0012 # note\r\n\r\n",
        "n=3\r1 2 3,4\r\r\n3 2 1,2",
        "n=3\n# 1 2 3,4\n# x\x00\x7f #\n\n",
        "n=3 # a # b\n1 2 3,4 ## c\n2 1 3,5 #\n",  # a comment ends at its line's end
        "n=3 # a\r1 2 3,4 # b\r2 1 3,5",  # ... also a CR
        "# c\nn=3\r\n1 2 3,5\r\n2 3 1,15",  # the last count ends the file
        f"n=3\n1 2 3,{2**63 - 2}\n",
        "n=12\n12 11 10 9 8 7 6 5 4 3 2 1,3\n",
        "n=200\n" + " ".join(map(str, range(200, 0, -1))) + ",7\n",
    ],
)
def test_plain_files_take_the_byte_pass(text, monkeypatch):
    # the line-by-line path is only for files off the plain alphabet and for
    # malformed ones; these must not reach it
    def refuse(*args):
        raise AssertionError("parsed line by line")

    monkeypatch.setattr(ballots_mod, "_parse_lines", refuse)
    assert_parses_like_the_reference(text)


def test_reading_a_dense_file_holds_little_beyond_its_arrays(tmp_path):
    # 40,000 records at n = 8 are 0.75 MB of text and 0.64 MB of arrays; a
    # token or line per record as Python objects would take over 14 MB
    rng = np.random.default_rng(8)
    words = np.argsort(rng.random((40_000, 8)), axis=1) + 1
    counts = rng.integers(1, 60, size=len(words))
    path = tmp_path / "dense.txt"
    path.write_text(
        "n=8\n" + "".join(" ".join(map(str, w)) + f",{c}\n" for w, c in zip(words.tolist(), counts))
    )
    read_ballot_file(path)
    tracemalloc.start()
    try:
        ballots = read_ballot_file(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(ballots.words, words) and np.array_equal(ballots.counts, counts)
    assert peak < 8e6

"""Ingestion of complete-ranking ballot files.

Format: a header line ``n=<N>``, then one record per line as space-separated
candidates in rank order, a comma, and a nonnegative count::

    n=3
    # most popular ordering first
    2 1 3,41
    1 2 3,12

Duplicate rankings are allowed and accumulate.  Only complete rankings of all
n candidates are accepted; partial or truncated ballots are out of scope and
rejected.  An optional JSON sidecar maps candidate numbers to display names,
e.g. ``{"1": "Shrimp"}``.

A parsed file is a ``BallotFile`` of two arrays in file order: ``words``, one
ranking per row, and ``counts``.  ``parse_ballots`` converts every distinct
token once and checks all rankings in one vectorized test; only when that
test fails does it go over the records one by one, to name the first bad
line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .combinatorics import Permutation, rank_words
from .errors import ValidationError
from .frame import Signal


# the most candidates that an empty words array can have columns for
MAX_CANDIDATES = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


def word_dtype(n: int) -> type:
    """The integer type of ``BallotFile.words`` for n candidates."""
    return np.int8 if n <= np.iinfo(np.int8).max else np.int64


@dataclass(eq=False)
class BallotFile:
    """Records in file order: ``words[i]`` lists the candidates (1..n) of the
    i-th record's ranking, best first, and ``counts[i]`` is its count."""

    n: int
    words: np.ndarray  # (records, n), dtype word_dtype(n)
    counts: np.ndarray  # (records,) int64, or Python ints (object) past int64
    label: str = "ballots"

    @property
    def records(self) -> list[tuple[Permutation, int]]:
        return [
            (Permutation(tuple(word)), count)
            for word, count in zip(self.words.tolist(), self.counts.tolist())
        ]

    def total(self) -> int:
        return sum(self.counts.tolist())


def parse_ballots(text: str, label: str = "ballots") -> BallotFile:
    """The records of a ballot file's text; ``ValidationError`` naming the
    first bad line otherwise."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    linenos = [i for i, line in enumerate(lines, start=1) if line]
    if not linenos:
        raise ValidationError("empty ballot file (no 'n=<N>' header)")
    n = _parse_header(linenos[0], lines[linenos[0] - 1])
    body = [lines[i - 1] for i in linenos[1:]]
    try:
        words, counts = _parse_records(body, n)
    except ValueError:
        for lineno in linenos[1:]:
            _check_record(lineno, lines[lineno - 1], n)
        raise
    return BallotFile(n, words, counts, label)


def _parse_header(lineno: int, line: str) -> int:
    if not line.startswith("n="):
        raise ValidationError(f"line {lineno}: expected header 'n=<N>'")
    try:
        n = int(line[2:])
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad candidate count") from exc
    if n < 1:
        raise ValidationError(f"line {lineno}: n must be positive")
    if n > MAX_CANDIDATES:
        raise ValidationError(f"line {lineno}: n={n} is too large")
    return n


def _parse_records(body: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, counts) of the record lines; ``ValueError`` when any line is
    malformed.

    A well-formed line splits into n candidate tokens, a comma and a count.
    With the commas split off as tokens of their own and a ';' token after
    every line, the records form a grid of n + 3 tokens per line, whose
    columns are read off by slicing; a malformed line shifts a ',' or ';'
    out of its column or into a number's."""
    width, size = n + 3, len(body)
    if not size:
        return np.zeros((0, n), word_dtype(n)), np.zeros(0, np.int64)
    tokens = " ; ".join(body + [""]).replace(",", " , ").split()
    # n comes from the header; from here on it is bounded by the text's size
    if len(tokens) != size * width:
        raise ValueError("a record is not n candidates, a comma and a count")
    columns = [tokens[j::width] for j in range(width)]
    if columns[n].count(",") != size or columns[n + 2].count(";") != size:
        raise ValueError("a record is not n candidates, a comma and a count")
    # few distinct tokens: int() parses each once, as the per-line check does,
    # and each is range-checked before it is narrowed to the words' dtype
    values = {token: int(token) for token in set(chain.from_iterable(columns[:n]))}
    if not all(1 <= v <= n for v in values.values()):
        raise ValueError("a candidate is out of range")
    words = np.fromiter(
        map(values.__getitem__, chain.from_iterable(columns[:n])),
        dtype=word_dtype(n),
        count=size * n,
    )
    words = np.ascontiguousarray(words.reshape(n, size).T)
    if not np.all(np.sort(words, axis=1) == np.arange(1, n + 1)):
        raise ValueError("a ranking is not a permutation")
    counts = list(map(int, columns[n + 1]))
    try:
        counts = np.array(counts, dtype=np.int64)
    except OverflowError:
        counts = np.array(counts, dtype=object)  # exact, as the file states them
    if np.any(counts < 0):
        raise ValueError("a count is negative")
    return words, counts


def _check_record(lineno: int, line: str, n: int) -> None:
    """Raise the ``ValidationError`` that names what is wrong with one record
    line, if anything."""
    if "," not in line:
        raise ValidationError(f"line {lineno}: missing ',<count>'")
    ranking_text, count_text = line.rsplit(",", 1)
    try:
        word = tuple(int(tok) for tok in ranking_text.split())
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad candidate token") from exc
    if len(word) != n:
        raise ValidationError(
            f"line {lineno}: ranking lists {len(word)} of {n} candidates; "
            f"only complete rankings are supported"
        )
    try:
        Permutation(word)
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from exc
    try:
        count = int(count_text)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad count {count_text!r}") from exc
    if count < 0:
        raise ValidationError(f"line {lineno}: negative count {count}")


def read_ballot_file(path: str | Path) -> BallotFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read ballot file {path}: {exc}") from exc
    return parse_ballots(text, label=path.name)


def tally(ballots: BallotFile) -> Signal:
    """Vote counts per ranking, indexed by lexicographic rank."""
    signal = Signal.zeros(ballots.n)
    # unbuffered, in record order: duplicates add up as a per-record loop would
    np.add.at(signal.values, rank_words(ballots.words), ballots.counts.astype(np.float64))
    return signal


def load_candidate_names(path: str | Path) -> dict[int, str]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(raw, dict):
            return {int(k): str(v) for k, v in raw.items()}
    except (OSError, ValueError) as exc:  # bad UTF-8, JSON or key: a ValueError
        raise ValidationError(f"cannot read names file {path}: {exc}") from exc
    raise ValidationError(f"names file {path} must hold a JSON object")

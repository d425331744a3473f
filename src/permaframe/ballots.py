"""Ingestion of complete-ranking ballot files.

Format: a header line ``n=<N>``, then one record per line as space-separated
candidates in rank order, a comma, and a nonnegative count::

    n=3
    # most popular ordering first
    2 1 3,41
    1 2 3,12

A leading UTF-8 byte-order mark is skipped.  Duplicate rankings are allowed
and accumulate.  Only complete rankings of all n candidates are accepted;
partial or truncated ballots are out of scope and rejected.  An optional JSON
sidecar maps candidate numbers to display names, e.g. ``{"1": "Shrimp"}``.

A parsed file is a ``BallotFile`` of two arrays in file order: ``words``, one
ranking per row, and ``counts``.  A file of plain bytes (ASCII digits, blanks,
commas and line breaks, besides its header and its ``#`` comments) is parsed
in one numpy pass over its bytes; any other file, and any file with a line
that pass cannot read, is parsed line by line, which also names the first bad
line.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .combinatorics import Permutation, check_dense_n, rank_words
from .errors import ValidationError
from .frame import Signal


# the most candidates that an empty words array can have columns for
MAX_CANDIDATES = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize

# Byte classes of the plain pass, in the order its checks compare them.  Any
# ASCII byte may sit in a comment except those that str.splitlines breaks
# lines at: they would end the comment, so they go line by line.
BLANK, EOL, COMMA, DIGIT, TEXT, HASH, OTHER = range(7)
BYTE_CLASS = np.full(256, OTHER, dtype=np.uint8)
BYTE_CLASS[:128] = TEXT
BYTE_CLASS[[0x0B, 0x0C, 0x1C, 0x1D, 0x1E]] = OTHER
BYTE_CLASS[list(b" \t")] = BLANK
BYTE_CLASS[list(b"\n\r")] = EOL
BYTE_CLASS[ord(",")] = COMMA
BYTE_CLASS[ord("0") : ord("9") + 1] = DIGIT
BYTE_CLASS[ord("#")] = HASH


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
    """The records of a ballot file's text, after one leading byte-order mark;
    ``ValidationError`` naming the first bad line otherwise."""
    text = text.removeprefix("\ufeff")
    ballots = _parse_plain(text.encode("ascii"), label) if text.isascii() else None
    return ballots if ballots is not None else _parse_lines(text, label)


def _parse_plain(data: bytes, label: str) -> BallotFile | None:
    """The records of a ballot file's bytes, read in one numpy pass; None when
    the file is not plain or has a line that is not blank, the header or a
    well-formed record, and the line-by-line parse must decide.

    Every byte is classed through ``BYTE_CLASS``, and a comment, from '#' to
    the next CR or LF, reads as blanks.  The first nonblank line must be
    'n=<digits>'.  After it, the body's digit runs, commas and line breaks
    must line up as records of n runs, a comma and one run, one per line.
    Then the runs, read by ``np.fromstring``, fill a (records, n + 1) grid
    whose candidates are range-checked before they are narrowed."""
    if not data:
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    kind = BYTE_CLASS[codes]
    if kind.max() == OTHER:
        return None
    eols = np.flatnonzero(kind == EOL)
    if b"#" in data:
        # the first '#' of a line up to its end: +1 at the one, -1 at the other
        hashes = np.flatnonzero(kind == HASH)
        ends = np.append(eols, len(kind))[np.searchsorted(eols, hashes)]
        first = np.ones(len(hashes), dtype=bool)
        np.not_equal(ends[1:], ends[:-1], out=first[1:])
        edges = np.zeros(len(kind) + 1, dtype=np.int8)
        edges[hashes[first]] = 1
        edges[ends[first]] = -1
        kind[np.cumsum(edges[:-1], dtype=np.int8).view(bool)] = BLANK
    start = int(np.argmax(kind >= COMMA))
    if kind[start] < COMMA:
        return None  # no header
    at = np.searchsorted(eols, start)
    stop = int(eols[at]) if at < len(eols) else len(kind)
    header = re.fullmatch(rb"n=([0-9]+)", data[start:stop].split(b"#", 1)[0].rstrip(b" \t"))
    if header is None or not 1 <= int(header[1]) <= MAX_CANDIDATES:
        return None
    n = int(header[1])
    body = kind[stop:]  # from the header's line break on
    if body.size and body.max() > DIGIT:
        return None
    digit = body == DIGIT
    # the body's events in file order: the first digit of every run, every
    # comma and every line break
    events = digit.copy()
    events[1:] &= ~digit[:-1]
    events |= body == EOL
    events |= body == COMMA
    seq = body[events]
    # each array is dropped once done with, so that the peak stays a few
    # times the file's size besides the parsed values
    del events, kind, body, eols
    # each line holds no event, or n runs, a comma and one run: with as many
    # commas as such lines, one at the right place in each, the rest are runs
    breaks = np.flatnonzero(seq == EOL)
    lengths = np.diff(breaks, append=len(seq)) - 1
    lines = breaks[lengths > 0] + 1
    records = len(lines)
    if (
        np.any(lengths[lengths > 0] != n + 2)
        or np.count_nonzero(seq == COMMA) != records
        or np.any(seq[lines + n] != COMMA)
    ):
        return None
    del seq, breaks, lengths, lines
    if not records:
        return BallotFile(n, np.zeros((0, n), word_dtype(n)), np.zeros(0, np.int64), label)
    # n comes from the header; from here on it is bounded by the text's size
    # the conversion reads a number on past the end of its buffer, so one
    # more blank ends the last one
    digits = np.full(len(digit) + 1, ord(" "), dtype=np.uint8)
    np.copyto(digits[:-1], codes[stop:], where=digit)
    del digit
    values = np.fromstring(digits, np.int64, count=records * (n + 1), sep=" ")
    del digits
    # a run past int64 reads as its largest value: the exact path keeps it
    if values.max() == np.iinfo(np.int64).max:
        return None
    grid = values.reshape(records, n + 1)
    if grid[:, :n].min() < 1 or grid[:, :n].max() > n:
        return None
    words = grid[:, :n].astype(word_dtype(n))
    if not np.all(np.sort(words, axis=1) == np.arange(1, n + 1)):
        return None
    return BallotFile(n, words, grid[:, n].copy(), label)


def _parse_lines(text: str, label: str) -> BallotFile:
    """The records of a ballot file's text, read line by line; the
    ``ValidationError`` naming the first bad line otherwise."""
    n = None
    words, counts = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = _parse_header(lineno, line)
            continue
        word, count = _parse_record(lineno, line, n)
        words.append(word)
        counts.append(count)
    if n is None:
        raise ValidationError("empty ballot file (no 'n=<N>' header)")
    words = np.array(words, dtype=word_dtype(n)).reshape(len(counts), n)
    try:
        counts = np.array(counts, dtype=np.int64)
    except OverflowError:
        counts = np.array(counts, dtype=object)  # exact, as the file states them
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


def _parse_record(lineno: int, line: str, n: int) -> tuple[tuple[int, ...], int]:
    """(word, count) of one record line; the ``ValidationError`` that names
    what is wrong with it otherwise."""
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
    return word, count


def read_ballot_file(path: str | Path) -> BallotFile:
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
        ballots = _parse_plain(data, path.name)
        text = data.decode("utf-8") if ballots is None else ""
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read ballot file {path}: {exc}") from exc
    return ballots if ballots is not None else _parse_lines(text, path.name)


def tally(ballots: BallotFile) -> Signal:
    """Vote counts per ranking, indexed by lexicographic rank, as a signal
    held by its support (:meth:`~permaframe.frame.Signal.from_support`): the
    ascending distinct ranks whose count is nonzero, and their counts.  No
    n!-length array is formed.  ``ValidationError`` when a count, a
    ranking's total or the tally's energy is past the float64 range."""
    check_dense_n(ballots.n)
    try:
        counts = ballots.counts.astype(np.float64)
    except OverflowError as exc:
        raise ValidationError(f"{ballots.label}: a count is too large for float64") from exc
    ranks, slot = np.unique(rank_words(ballots.words), return_inverse=True)
    weights = np.zeros(len(ranks))
    with np.errstate(over="ignore"):  # refused below
        # unbuffered, in record order: duplicates add up as a per-record loop would
        np.add.at(weights, slot, counts)
        energy = np.einsum("i,i->", weights, weights)  # infinite when any entry is
    del slot, counts
    if not np.isfinite(energy):
        raise ValidationError(f"{ballots.label}: the tally's energy is too large for float64")
    return Signal.from_support(ballots.n, ranks, weights)


def load_candidate_names(path: str | Path) -> dict[int, str]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(raw, dict):
            return {int(k): str(v) for k, v in raw.items()}
    except (OSError, ValueError) as exc:  # bad UTF-8, JSON or key: a ValueError
        raise ValidationError(f"cannot read names file {path}: {exc}") from exc
    raise ValidationError(f"names file {path} must hold a JSON object")

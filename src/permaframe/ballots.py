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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .combinatorics import Permutation, rank_words
from .errors import ValidationError
from .frame import Signal


@dataclass
class BallotFile:
    n: int
    records: list[tuple[Permutation, int]]
    label: str = "ballots"

    def total(self) -> int:
        return sum(count for _r, count in self.records)


def parse_ballots(text: str, label: str = "ballots") -> BallotFile:
    n: int | None = None
    records: list[tuple[Permutation, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ValidationError(f"line {lineno}: expected header 'n=<N>'")
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: bad candidate count") from exc
            if n < 1:
                raise ValidationError(f"line {lineno}: n must be positive")
            continue
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
            ranking = Permutation(word)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad count {count_text!r}") from exc
        if count < 0:
            raise ValidationError(f"line {lineno}: negative count {count}")
        records.append((ranking, count))
    if n is None:
        raise ValidationError("empty ballot file (no 'n=<N>' header)")
    return BallotFile(n, records, label)


def read_ballot_file(path: str | Path) -> BallotFile:
    path = Path(path)
    return parse_ballots(path.read_text(), label=path.name)


def serialize_ballots(ballots: BallotFile) -> str:
    lines = [f"n={ballots.n}"]
    lines.extend(
        " ".join(str(c) for c in ranking.word) + f",{count}"
        for ranking, count in ballots.records
    )
    return "\n".join(lines) + "\n"


def tally(ballots: BallotFile) -> Signal:
    """Vote counts per ranking, indexed by lexicographic rank."""
    signal = Signal.zeros(ballots.n)
    words = np.array([r.word for r, _c in ballots.records], dtype=np.int8)
    counts = np.array([c for _r, c in ballots.records], dtype=np.float64)
    # unbuffered, in record order: duplicates add up as a per-record loop would
    np.add.at(signal.values, rank_words(words.reshape(-1, ballots.n)), counts)
    return signal


def load_candidate_names(path: str | Path) -> dict[int, str]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read names file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"names file {path} must hold a JSON object")
    return {int(k): str(v) for k, v in raw.items()}

"""Workload definitions and their seeded input generators.

Each workload names one ``n``, the ``setup`` flags that shape its cache, a
ballot generator, and the shape that ``project`` accumulates onto.  The
program only ever sees the generated ballot file; everything else here is
benchmark-side bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    setup_args: tuple[str, ...]
    make_ballots: Callable[[int, np.random.Generator], np.ndarray]
    project_shape: tuple[int, ...]
    cold_setups: int  # cold setups per run; setup_s is their median

    @property
    def full_h(self) -> bool:
        """The cache holds the full transpose-reduced shape list."""
        return "--shapes" not in self.setup_args


def mallows_counts(n: int, voters: int, phi: float, rng: np.random.Generator) -> np.ndarray:
    """Vote counts per lexicographic rank for ``voters`` Mallows draws around a
    random reference order, sampled by repeated insertion."""
    reference = rng.permutation(n)
    rankings = np.empty((voters, 0), dtype=np.int8)
    for i in range(n):
        # inserting the i-th reference item adds v inversions with P ~ phi**v
        weights = phi ** np.arange(i + 1)
        v = rng.choice(i + 1, size=voters, p=weights / weights.sum())
        pos = (i - v)[:, None]
        cols = np.arange(i + 1)[None, :]
        src = np.clip(cols - (cols > pos), 0, max(i - 1, 0))
        grown = np.take_along_axis(rankings, src, axis=1) if i else np.empty((voters, 1), np.int8)
        rankings = np.where(cols == pos, np.int8(reference[i]), grown)
    return np.bincount(lex_ranks(rankings), minlength=factorial(n))


def uniform_counts(n: int, lines: int, max_count: int, rng: np.random.Generator) -> np.ndarray:
    """``lines`` distinct uniformly random rankings, each with a count in
    1..max_count."""
    counts = np.zeros(factorial(n), dtype=np.int64)
    ranks = rng.choice(factorial(n), size=lines, replace=False)
    counts[ranks] = rng.integers(1, max_count + 1, size=lines)
    return counts


def lex_ranks(words: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of 0-based permutation words (one per row)."""
    count, n = words.shape
    ranks = np.zeros(count, dtype=np.int64)
    for j in range(n - 1):
        smaller = (words[:, j + 1 :] < words[:, j : j + 1]).sum(axis=1)
        ranks += smaller * factorial(n - 1 - j)
    return ranks


def lex_words(ranks: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`lex_ranks`: 0-based words for lexicographic ranks."""
    digits = np.empty((len(ranks), n), dtype=np.int64)
    rest = ranks.astype(np.int64)
    for j in range(n):
        digits[:, j], rest = np.divmod(rest, factorial(n - 1 - j))
    words = np.empty_like(digits)
    free = np.tile(np.arange(n), (len(ranks), 1))
    for j in range(n):
        words[:, j] = np.take_along_axis(free, digits[:, j : j + 1], axis=1)[:, 0]
        keep = np.arange(n - j)[None, :] != digits[:, j : j + 1]
        free = free[keep].reshape(len(ranks), n - j - 1)
    return words


def write_ballots(path: Path, counts: np.ndarray, n: int, rng: np.random.Generator) -> dict:
    """Write one line per ranking with a nonzero count, in a seeded order, and
    return the input's measured properties."""
    ranks = np.flatnonzero(counts)
    ranks = ranks[rng.permutation(len(ranks))]
    words = lex_words(ranks, n) + 1
    lines = [f"n={n}"]
    lines.extend(
        " ".join(map(str, word)) + f",{c}" for word, c in zip(words.tolist(), counts[ranks].tolist())
    )
    path.write_text("\n".join(lines) + "\n")
    return {
        "lines": len(ranks),
        "voters": int(counts.sum()),
        "support_fraction": len(ranks) / factorial(n),
        "energy": int((counts.astype(np.int64) ** 2).sum()),
    }


def project_blocks(shape: tuple[int, ...], rng: np.random.Generator) -> str:
    """A seeded candidate grouping of the given shape, in block-label format."""
    order = rng.permutation(sum(shape)) + 1
    blocks, start = [], 0
    for size in shape:
        blocks.append("".join(str(e) for e in sorted(order[start : start + size])))
        start += size
    return "|".join(blocks)


WORKLOADS = {
    w.name: w
    for w in [
        # Dense: ballot parsing, tallying, serialization, synthesis and the sign
        # trick are large, and setup is mostly eigensolves.
        Workload(
            name="n8_dense",
            n=8,
            setup_args=(),
            make_ballots=lambda n, rng: mallows_counts(n, 10**6, exp(-0.3), rng),
            project_shape=(4, 2, 1, 1),
            cold_setups=3,
        ),
        # Sparse stand-in for n=10 with 8 shapes, whose analyze alone outlasts a
        # run: n!-length maps dominate a 2,000-nonzero tally.  Streamed mode is
        # what `auto` picks at n=10; here `auto` would pick cached mode.
        Workload(
            name="n9_sparse",
            n=9,
            setup_args=("--shapes", "5", "--mode", "streamed"),
            make_ballots=lambda n, rng: uniform_counts(n, 2000, 8, rng),
            project_shape=(6, 3),
            cold_setups=5,
        ),
        # The benchmark's own test; not in BENCHMARK.json.
        Workload(
            name="smoke",
            n=5,
            setup_args=(),
            make_ballots=lambda n, rng: mallows_counts(n, 5000, exp(-0.3), rng),
            project_shape=(3, 1, 1),
            cold_setups=2,
        ),
    ]
}

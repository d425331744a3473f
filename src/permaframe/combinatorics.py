"""Exact combinatorial primitives: permutations, integer partitions, ordered set
partitions, dominance order and hook-length dimensions.

Conventions used throughout the package:

* A permutation is stored by its word: ``word[i]`` is the candidate placed in
  ranking position ``i + 1`` (values are 1-based).
* An ordered set partition of ``{1..n}`` is stored by its row word:
  ``row_word[j]`` is the 0-based index of the block containing element ``j + 1``.
  The canonical ordering of all ordered set partitions of a shape is
  lexicographic on row words, which puts the reading-order partition first.
  The transform handles row words as (count, n) int8 matrices, one word per
  row; ``OrderedSetPartition`` objects are the validated view of one word,
  built where a lifting is parsed from or printed as text.
* Integer partitions are nonincreasing tuples of positive parts.

Everything here is exact integer arithmetic; Python's unbounded ints cover the
supported range ``n <= 16``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod, sqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError

MAX_EXACT_N = 16
# Dense length-n! arrays (signals, characteristic column maps) stop being
# representable well before exact arithmetic does.
MAX_DENSE_N = 12


def _check_positive_n(n: int) -> None:
    # no ranking of fewer than one candidate exists: invalid input, not a
    # resource refusal
    if n < 1:
        raise ValidationError(f"n={n} must be at least 1")


def check_exact_n(n: int) -> None:
    _check_positive_n(n)
    if n > MAX_EXACT_N:
        raise ResourceLimitError(
            f"n={n} outside the supported exact range 1..{MAX_EXACT_N}"
        )


def check_dense_n(n: int) -> None:
    _check_positive_n(n)
    if n > MAX_DENSE_N:
        raise ResourceLimitError(
            f"n={n} requires dense length-n! arrays; supported only for n <= {MAX_DENSE_N}"
        )


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True, order=True)
class Permutation:
    """A ranking of n candidates; ``word[i]`` is the candidate in place i+1."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValidationError(f"not a permutation of 1..{n}: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, position: int) -> int:
        """Candidate in ranking position ``position`` (1-based)."""
        return self.word[position - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, cand in enumerate(self.word, start=1):
            inv[cand - 1] = pos
        return Permutation(tuple(inv))


def lex_rank(p: Permutation) -> int:
    """Index of ``p`` in the lexicographic order of words, in [0, n!)."""
    n = p.n
    rank = 0
    for j in range(n - 1):
        smaller = sum(1 for k in range(j + 1, n) if p.word[k] < p.word[j])
        rank += smaller * factorial(n - 1 - j)
    return rank


def sign(p: Permutation) -> int:
    """Parity of the inversion count: +1 for even, -1 for odd."""
    inversions = sum(
        1
        for j in range(p.n)
        for k in range(j + 1, p.n)
        if p.word[k] < p.word[j]
    )
    return 1 if inversions % 2 == 0 else -1


# ---------------------------------------------------------------------------
# integer partitions


@dataclass(frozen=True, order=True)
class IntegerPartition:
    """A shape: nonincreasing positive parts summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValidationError("empty partition")
        if any(p < 1 for p in self.parts):
            raise ValidationError(f"nonpositive part in {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValidationError(f"parts not nonincreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def transpose(self) -> "IntegerPartition":
        return IntegerPartition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def label(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "IntegerPartition":
        try:
            parts = tuple(int(tok) for tok in text.replace(" ", "").split(","))
        except ValueError as exc:
            raise ValidationError(f"cannot parse shape {text!r}") from exc
        return cls(parts)

    @classmethod
    def of(cls, parts: Sequence[int]) -> "IntegerPartition":
        return cls(tuple(parts))


@lru_cache(maxsize=32)
def partitions_of(n: int) -> tuple[IntegerPartition, ...]:
    """All partitions of n in descending lexicographic order."""
    check_exact_n(n)

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(IntegerPartition(p) for p in gen(n, n))


def dominates(nu: IntegerPartition, gamma: IntegerPartition) -> bool:
    """Strict dominance: every prefix sum of nu >= that of gamma, and nu != gamma."""
    if nu.n != gamma.n:
        raise ValidationError(f"shapes {nu.parts} and {gamma.parts} partition different n")
    return nu != gamma and weakly_dominates(nu, gamma)


def weakly_dominates(nu: IntegerPartition, gamma: IntegerPartition) -> bool:
    a = b = 0
    for i in range(max(len(nu), len(gamma))):
        a += nu.parts[i] if i < len(nu) else 0
        b += gamma.parts[i] if i < len(gamma) else 0
        if a < b:
            return False
    return True


def hook_dimension(gamma: IntegerPartition) -> int:
    """Number of standard Young tableaux of the shape, by the hook formula."""
    cols = gamma.transpose().parts
    hooks = prod(
        gamma.parts[r] - c + cols[c] - r - 1
        for r in range(len(gamma))
        for c in range(gamma.parts[r])
    )
    return factorial(gamma.n) // hooks


class MultiplicityConstants(NamedTuple):
    m: int
    z: int
    c: float
    c_bar: float


@lru_cache(maxsize=64)
def multiplicity_constants(gamma: IntegerPartition) -> MultiplicityConstants:
    """Counting constants for a shape.

    m: ordered set partitions of the shape, n!/prod(parts!).
    z: set partitions after identifying reorderings of equal-size blocks,
       m / prod(multiplicities!).
    c, c_bar: the frame scaling constants sqrt(d/n!) and sqrt(d*m/(n!*z)).
    """
    n = gamma.n
    check_exact_n(n)
    m = factorial(n) // prod(factorial(p) for p in gamma.parts)
    mults: dict[int, int] = {}
    for p in gamma.parts:
        mults[p] = mults.get(p, 0) + 1
    z = m // prod(factorial(k) for k in mults.values())
    d = hook_dimension(gamma)
    c = sqrt(d / factorial(n))
    return MultiplicityConstants(m, z, c, c * sqrt(m / z))


# ---------------------------------------------------------------------------
# ordered set partitions


def block_labels(words: np.ndarray) -> list[str]:
    """The block label of each row word of one shape, given one per row: the
    elements (1-based) of each block in increasing order, blocks joined by
    "|"; elements are digits for n <= 9 and comma-separated from n = 10."""
    count, n = words.shape
    if not count:
        return []
    # every word of a shape has the same block sizes, so one format string
    # places the elements that a stable sort groups by block
    sizes = np.bincount(words[0])
    fmt = "|".join(("" if n <= 9 else ",").join(["{}"] * size) for size in sizes)
    elements = np.argsort(words, axis=1, kind="stable") + 1
    return [fmt.format(*row) for row in elements.tolist()]


@dataclass(frozen=True, order=True)
class OrderedSetPartition:
    """Grouping of {1..n} into ordered blocks; row_word[j] = block of element j+1."""

    row_word: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = len(set(self.row_word))
        if rows == 0 or set(self.row_word) != set(range(rows)):
            raise ValidationError(f"row word does not use rows 0..k-1: {self.row_word}")
        sizes = [self.row_word.count(r) for r in range(rows)]
        if any(sizes[i] < sizes[i + 1] for i in range(rows - 1)):
            raise ValidationError(f"block sizes not nonincreasing: {sizes}")

    @property
    def n(self) -> int:
        return len(self.row_word)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        rows = max(self.row_word) + 1
        out: list[list[int]] = [[] for _ in range(rows)]
        for element, row in enumerate(self.row_word, start=1):
            out[row].append(element)
        return tuple(tuple(b) for b in out)

    @property
    def shape(self) -> IntegerPartition:
        return IntegerPartition(tuple(len(b) for b in self.blocks))

    def label(self) -> str:
        return block_labels(np.array([self.row_word]))[0]

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "OrderedSetPartition":
        elements = [e for b in blocks for e in b]
        n = len(elements)
        if sorted(elements) != list(range(1, n + 1)):
            raise ValidationError(f"blocks do not partition 1..{n}: {blocks}")
        row_word = [0] * n
        for row, block in enumerate(blocks):
            for e in block:
                row_word[e - 1] = row
        return cls(tuple(row_word))

    @classmethod
    def parse_label(cls, text: str, n: int) -> "OrderedSetPartition":
        """Parse the block-label format.

        Blocks are joined by "|".  A label with a comma anywhere, and every
        label for n >= 11, is in comma form: elements are comma-separated, so
        a block without a comma is one number.  Any other label is in digit
        form, one digit per element with "0" standing for candidate 10, except
        at n = 10 when it does not have 10 digits: the all-singleton label
        "1|2|...|9|10" that :meth:`label` writes is in comma form.
        """
        chunks = [chunk.strip() for chunk in text.strip().split("|")]
        if not all(chunks):
            raise ValidationError(f"empty block in {text!r}")
        comma_form = "," in text or n > 10 or (n == 10 and sum(map(len, chunks)) != n)
        try:
            blocks = [
                [int(tok) for tok in chunk.split(",")]
                if comma_form
                else [10 if ch == "0" else int(ch) for ch in chunk]
                for chunk in chunks
            ]
        except ValueError:
            raise ValidationError(f"{text!r} is not a block label") from None
        osp = cls.from_blocks(blocks)
        if osp.n != n:
            raise ValidationError(f"{text!r} is not a partition of 1..{n}")
        return osp


def reading_order_partition(gamma: IntegerPartition) -> OrderedSetPartition:
    """Row 1 = {1..gamma_1}, row 2 = the next gamma_2 elements, and so on."""
    row_word: list[int] = []
    for row, size in enumerate(gamma.parts):
        row_word.extend([row] * size)
    return OrderedSetPartition(tuple(row_word))


@lru_cache(maxsize=64)
def row_word_matrix(gamma: IntegerPartition) -> np.ndarray:
    """Row words of the canonical enumeration as an (m, n) int8 array: the
    distinct arrangements of the multiset {r with multiplicity gamma_r} in
    lexicographic order.  Built one position at a time, extending every
    prefix, in order, by each row that still has room, in increasing order."""
    check_exact_n(gamma.n)
    words = np.zeros((1, 0), dtype=np.int8)
    room = np.array([gamma.parts], dtype=np.int8)
    for _ in range(gamma.n):
        prefix, row = np.nonzero(room)
        words = np.concatenate([words[prefix], row[:, None].astype(np.int8)], axis=1)
        room = room[prefix]
        room[np.arange(len(row)), row] -= 1
    words.setflags(write=False)
    return words


@lru_cache(maxsize=64)
def enumerate_ordered_set_partitions(
    gamma: IntegerPartition,
) -> tuple[OrderedSetPartition, ...]:
    """All m ordered set partitions of the shape, sorted by row word."""
    return tuple(OrderedSetPartition(tuple(w)) for w in row_word_matrix(gamma).tolist())


@lru_cache(maxsize=64)
def reduced_row_words(gamma: IntegerPartition) -> np.ndarray:
    """One canonical representative per orbit under permuting equal-size
    blocks, as a read-only (z, n) int8 matrix: the row words whose equal-size
    blocks appear in order of increasing minimum element, i.e. the least row
    word of each orbit, in canonical order.  The reading-order partition's
    word is first."""
    words = row_word_matrix(gamma)
    keep = np.ones(len(words), dtype=bool)
    for r in range(len(gamma) - 1):
        if gamma.parts[r] == gamma.parts[r + 1]:
            # argmax finds the first element of each row
            keep &= (words == r).argmax(axis=1) < (words == r + 1).argmax(axis=1)
    reduced = words[keep]
    reduced.setflags(write=False)
    assert len(reduced) == multiplicity_constants(gamma).z
    assert np.array_equal(reduced[0], words[0])
    return reduced


@lru_cache(maxsize=64)
def reduced_representatives(gamma: IntegerPartition) -> tuple[OrderedSetPartition, ...]:
    """The rows of :func:`reduced_row_words` as objects."""
    return tuple(OrderedSetPartition(tuple(w)) for w in reduced_row_words(gamma).tolist())


def standard_row_words(gamma: IntegerPartition) -> np.ndarray:
    """The d row words whose sorted blocks also increase down every column,
    in canonical order, as a (d, n) int8 matrix.  These are the standard Young
    tableaux: a word is one exactly when each of its prefixes holds at least
    as many elements of every row as of the row below it.  Built as
    :func:`row_word_matrix` builds every word, except that a row takes the
    next element only while it holds fewer than the row above it, so the
    cost follows d, not m."""
    check_exact_n(gamma.n)
    words = np.zeros((1, 0), dtype=np.int8)
    held = np.zeros((1, len(gamma)), dtype=np.int8)
    for _ in range(gamma.n):
        room = held < np.array(gamma.parts, dtype=np.int8)
        room[:, 1:] &= held[:, 1:] < held[:, :-1]
        prefix, row = np.nonzero(room)
        words = np.concatenate([words[prefix], row[:, None].astype(np.int8)], axis=1)
        held = held[prefix]
        held[np.arange(len(row)), row] += 1
    assert len(words) == hook_dimension(gamma)
    return words


# ---------------------------------------------------------------------------
# subsampled shape lists


def h_shapes(n: int, k: int | None = None) -> tuple[IntegerPartition, ...]:
    """Shapes, in descending lexicographic order, that are not the transpose of
    an earlier shape in that order; optionally truncated to the first k."""
    shapes = [
        gamma
        for gamma in partitions_of(n)
        if gamma.transpose().parts <= gamma.parts
    ]
    if k is not None:
        if k < 1:
            raise ValidationError(f"shape count k={k} must be positive")
        shapes = shapes[:k]
    return tuple(shapes)


# ---------------------------------------------------------------------------
# vectorized permutation indexing (dense length-n! tables)


def unrank_words(n: int, ranks: np.ndarray) -> np.ndarray:
    """The words of the given lexicographic ranks, one per column: entry
    [p, i] is the 0-based candidate in position p of ranking ``ranks[i]``;
    (n, len(ranks)) int8, decoded from the Lehmer digits in O(n^2 len(ranks))."""
    check_dense_n(n)
    rest = np.array(ranks, dtype=np.int32)  # 12! < 2**31
    words = np.empty((n, len(rest)), dtype=np.int8)
    for p in range(n):
        words[p] = digit = rest // factorial(n - 1 - p)
        rest -= digit * factorial(n - 1 - p)
    # right to left, each digit becomes the candidate it counts up to among
    # those not placed before it
    for p in range(n - 2, -1, -1):
        words[p + 1 :] += words[p + 1 :] >= words[p]
    return words


def rank_words(words: np.ndarray) -> np.ndarray:
    """Lexicographic ranks (int64) of permutation words given one per row,
    the transpose of :func:`unrank_words`' layout; the candidates may be
    numbered from 0 or from 1."""
    count, n = words.shape
    ranks = np.zeros(count, dtype=np.int64)
    for j in range(n - 1):
        smaller = (words[:, j + 1 :] < words[:, j : j + 1]).sum(axis=1, dtype=np.int64)
        ranks += smaller * factorial(n - 1 - j)
    return ranks


@lru_cache(maxsize=2)
def word_table(n: int) -> np.ndarray:
    """All permutation words of 0-based values, one per row, in lexicographic
    order; shape (n!, n), dtype int8."""
    table = np.ascontiguousarray(unrank_words(n, np.arange(factorial(n))).T)
    table.setflags(write=False)
    return table


def rank_signs(n: int, ranks: np.ndarray) -> np.ndarray:
    """Permutation signs of the given lexicographic ranks, as int8 in
    {-1, +1}: the parity of the Lehmer digit sum, (rank // k!) % (k+1)
    summed over k."""
    check_dense_n(n)
    ranks = np.asarray(ranks, dtype=np.int32)  # 12! < 2**31
    parity = sum(((ranks // factorial(k)) % (k + 1) for k in range(1, n)), np.zeros_like(ranks))
    return (1 - 2 * (parity % 2)).astype(np.int8)


@lru_cache(maxsize=4)
def sign_vector(n: int) -> np.ndarray:
    """Permutation signs indexed by lexicographic rank, all n! of them, as a
    read-only int8 table equal to :func:`rank_signs` over every rank.

    The ranking of rank b*k! + j is that of rank b*k! with its last k entries
    permuted by the j-th permutation of k items, so its sign is the product of
    theirs.  With k = 4, :func:`rank_signs` and its int32 temporaries run
    over n!/24 leaders and 24 suffix permutations, not over n! ranks."""
    check_dense_n(n)
    k = min(n, 4)
    leader_signs = rank_signs(n, np.arange(factorial(n) // factorial(k)) * factorial(k))
    signs = np.multiply.outer(leader_signs, rank_signs(k, np.arange(factorial(k)))).reshape(-1)
    signs.setflags(write=False)
    return signs

"""Exact combinatorial primitives: permutations, integer partitions, ordered set
partitions, dominance order, hook-length dimensions, and Kostka numbers.

Conventions used throughout the package:

* A permutation is stored by its word: ``word[i]`` is the candidate placed in
  ranking position ``i + 1`` (values are 1-based).
* An ordered set partition of ``{1..n}`` is stored by its row word:
  ``row_word[j]`` is the 0-based index of the block containing element ``j + 1``.
  The canonical ordering of all ordered set partitions of a shape is
  lexicographic on row words, which puts the reading-order partition first.
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


def check_exact_n(n: int) -> None:
    if not 1 <= n <= MAX_EXACT_N:
        raise ResourceLimitError(
            f"n={n} outside the supported exact range 1..{MAX_EXACT_N}"
        )


def check_dense_n(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_N:
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

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition self∘other: j -> self(other(j))."""
        return Permutation(tuple(self(other(j)) for j in range(1, self.n + 1)))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The transposition (i, i+1) as a permutation of 1..n."""
    if not 1 <= i <= n - 1:
        raise ValidationError(f"adjacent transposition index {i} out of range for n={n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


def lex_rank(p: Permutation) -> int:
    """Index of ``p`` in the lexicographic order of words, in [0, n!)."""
    n = p.n
    rank = 0
    for j in range(n - 1):
        smaller = sum(1 for k in range(j + 1, n) if p.word[k] < p.word[j])
        rank += smaller * factorial(n - 1 - j)
    return rank


def lex_unrank(index: int, n: int) -> Permutation:
    check_exact_n(n)
    if not 0 <= index < factorial(n):
        raise ValidationError(f"rank {index} out of range for n={n}")
    remaining = list(range(1, n + 1))
    word = []
    for j in range(n - 1, -1, -1):
        q, index = divmod(index, factorial(j))
        word.append(remaining.pop(q))
    return Permutation(tuple(word))


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


def _format_block(block: tuple[int, ...], n: int) -> str:
    if n <= 9:
        return "".join(str(e) for e in block)
    return ",".join(str(e) for e in block)


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
        return "|".join(_format_block(b, self.n) for b in self.blocks)

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

        Blocks are joined by "|"; elements are digits for n <= 9 and
        comma-separated for n >= 10.  For n = 10 a bare-digit form is also
        accepted, with "0" standing for candidate 10.
        """
        blocks: list[list[int]] = []
        for chunk in text.strip().split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValidationError(f"empty block in {text!r}")
            if "," in chunk:
                block = [int(tok) for tok in chunk.split(",")]
            elif n <= 10:
                block = [10 if ch == "0" else int(ch) for ch in chunk]
            else:
                raise ValidationError(
                    f"blocks for n={n} must be comma-separated: {text!r}"
                )
            blocks.append(block)
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


def _multiset_words(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the multiset {r with multiplicity counts[r]},
    in lexicographic order."""
    total = sum(counts)
    word: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == total:
            yield tuple(word)
            return
        for r, c in enumerate(counts):
            if c > 0:
                counts[r] -= 1
                word.append(r)
                yield from rec()
                word.pop()
                counts[r] += 1

    yield from rec()


@lru_cache(maxsize=64)
def enumerate_ordered_set_partitions(
    gamma: IntegerPartition,
) -> tuple[OrderedSetPartition, ...]:
    """All m ordered set partitions of the shape, sorted by row word."""
    check_exact_n(gamma.n)
    return tuple(
        OrderedSetPartition(w) for w in _multiset_words(list(gamma.parts))
    )


@lru_cache(maxsize=64)
def row_word_matrix(gamma: IntegerPartition) -> np.ndarray:
    """Row words of the canonical enumeration as an (m, n) int8 array."""
    osps = enumerate_ordered_set_partitions(gamma)
    mat = np.array([osp.row_word for osp in osps], dtype=np.int8)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=64)
def _osp_index_map(gamma: IntegerPartition) -> dict[tuple[int, ...], int]:
    return {
        osp.row_word: i
        for i, osp in enumerate(enumerate_ordered_set_partitions(gamma))
    }


def osp_index(osp: OrderedSetPartition) -> int:
    """Index of an ordered set partition in the canonical order of its shape."""
    return _osp_index_map(osp.shape)[osp.row_word]


def act(p: Permutation, osp: OrderedSetPartition) -> OrderedSetPartition:
    """Apply a permutation to the elements: j in block i maps to p(j) in block i."""
    if p.n != osp.n:
        raise ValidationError("permutation and set partition sizes differ")
    row_word = [0] * osp.n
    for j in range(1, osp.n + 1):
        row_word[p(j) - 1] = osp.row_word[j - 1]
    return OrderedSetPartition(tuple(row_word))


def inversion_count(osp: OrderedSetPartition) -> int:
    """Pairs (i, j) with i < j and j in a strictly higher (earlier) row than i."""
    rw = osp.row_word
    return sum(
        1
        for i in range(osp.n)
        for j in range(i + 1, osp.n)
        if rw[j] < rw[i]
    )


def is_reduced_representative(osp: OrderedSetPartition) -> bool:
    """True when equal-size blocks appear in order of increasing minimum element,
    i.e. the row word is lexicographically least in its orbit under permuting
    equal-size blocks."""
    blocks = osp.blocks
    for i in range(len(blocks) - 1):
        if len(blocks[i]) == len(blocks[i + 1]) and blocks[i][0] > blocks[i + 1][0]:
            return False
    return True


@lru_cache(maxsize=64)
def reduced_representatives(gamma: IntegerPartition) -> tuple[OrderedSetPartition, ...]:
    """One canonical representative per orbit under permuting equal-size blocks.

    There are exactly z of them; the reading-order partition is first.
    """
    reps = tuple(
        osp
        for osp in enumerate_ordered_set_partitions(gamma)
        if is_reduced_representative(osp)
    )
    assert len(reps) == multiplicity_constants(gamma).z
    assert reps[0] == reading_order_partition(gamma)
    return reps


def equal_block_orbit(osp: OrderedSetPartition) -> tuple[OrderedSetPartition, ...]:
    """All reorderings of the blocks that permute equal-size blocks only."""
    from itertools import permutations as iperm

    blocks = osp.blocks
    sizes = [len(b) for b in blocks]
    # contiguous bands of equal size
    bands: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(blocks) + 1):
        if i == len(blocks) or sizes[i] != sizes[start]:
            bands.append((start, i))
            start = i
    orbit: list[OrderedSetPartition] = []

    def rec(i: int, order: list[int]) -> None:
        if i == len(bands):
            orbit.append(
                OrderedSetPartition.from_blocks([blocks[j] for j in order])
            )
            return
        lo, hi = bands[i]
        for perm in iperm(range(lo, hi)):
            rec(i + 1, order + list(perm))

    rec(0, [])
    return tuple(orbit)


def standard_ordered_set_partitions(
    gamma: IntegerPartition,
) -> tuple[OrderedSetPartition, ...]:
    """Partitions whose sorted blocks also increase down every column.

    These are in bijection with standard Young tableaux, so there are exactly
    d of them.
    """
    out = []
    for osp in enumerate_ordered_set_partitions(gamma):
        blocks = osp.blocks
        ok = True
        for r in range(1, len(blocks)):
            for c in range(len(blocks[r])):
                if blocks[r][c] <= blocks[r - 1][c]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(osp)
    assert len(out) == hook_dimension(gamma)
    return tuple(out)


# ---------------------------------------------------------------------------
# column-strict tableaux and Kostka numbers


@dataclass(frozen=True)
class ColumnStrictTableau:
    """Filling of `shape` with gamma_r copies of r (1-based), rows weakly
    increasing and columns strictly increasing."""

    shape: IntegerPartition
    content: IntegerPartition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        counts = [0] * (len(self.content) + 1)
        for r, row in enumerate(self.rows):
            if len(row) != self.shape.parts[r]:
                raise ValidationError("tableau rows do not match shape")
            for c, v in enumerate(row):
                counts[v] += 1
                if c > 0 and row[c - 1] > v:
                    raise ValidationError("row not weakly increasing")
                if r > 0 and c < len(self.rows[r - 1]) and self.rows[r - 1][c] >= v:
                    raise ValidationError("column not strictly increasing")
        if counts[1:] != list(self.content.parts):
            raise ValidationError("tableau content mismatch")


@lru_cache(maxsize=256)
def kostka(
    gamma: IntegerPartition, nu: IntegerPartition
) -> tuple[int, tuple[ColumnStrictTableau, ...]]:
    """Kostka number K[gamma, nu] with the witnessing column-strict tableaux of
    shape nu and content gamma.  Zero unless nu weakly dominates gamma."""
    if gamma.n != nu.n:
        raise ValidationError("content and shape partition different n")
    if not weakly_dominates(nu, gamma):
        return 0, ()

    shape = nu.parts
    remaining = list(gamma.parts)
    grid = [[0] * shape[r] for r in range(len(shape))]
    found: list[ColumnStrictTableau] = []

    def cell_after(r: int, c: int) -> tuple[int, int] | None:
        if c + 1 < shape[r]:
            return r, c + 1
        if r + 1 < len(shape):
            return r + 1, 0
        return None

    def rec(r: int, c: int) -> None:
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[r][c] = v
            nxt = cell_after(r, c)
            if nxt is None:
                found.append(
                    ColumnStrictTableau(nu, gamma, tuple(tuple(row) for row in grid))
                )
            else:
                rec(*nxt)
            grid[r][c] = 0
            remaining[v - 1] += 1

    rec(0, 0)
    return len(found), tuple(found)


def tableau_to_set_partition(t: ColumnStrictTableau) -> OrderedSetPartition:
    """Set partition of shape content(t): element j goes to row r when the jth
    box of the tableau in reading order contains r."""
    entries = [v for row in t.rows for v in row]
    return OrderedSetPartition(tuple(v - 1 for v in entries))


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


@lru_cache(maxsize=2)
def word_table(n: int) -> np.ndarray:
    """All permutation words of 0-based values, one per row, in lexicographic
    order; shape (n!, n), dtype int8."""
    check_dense_n(n)
    table = np.zeros((1, 1), dtype=np.int8)
    for k in range(2, n + 1):
        m = table.shape[0]
        out = np.empty((k * m, k), dtype=np.int8)
        values = np.arange(k, dtype=np.int8)
        for v in range(k):
            rest = np.delete(values, v)
            block = out[v * m : (v + 1) * m]
            block[:, 0] = v
            block[:, 1:] = rest[table]
        table = out
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def sign_vector(n: int) -> np.ndarray:
    """Permutation signs indexed by lexicographic rank, as int8 in {-1, +1}."""
    words = word_table(n)
    inversions = np.zeros(words.shape[0], dtype=np.int64)
    for j in range(n - 1):
        inversions += (words[:, j + 1 :] < words[:, j : j + 1]).sum(
            axis=1, dtype=np.int64
        )
    signs = np.where(inversions % 2 == 0, 1, -1).astype(np.int8)
    signs.setflags(write=False)
    return signs

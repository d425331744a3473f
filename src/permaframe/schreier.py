"""Schreier graphs of the permutahedron, their characteristic (lifting) matrices
in column-map form, and a minimal adjacent-swap path to each reduced lifting.

There is one graph builder, ``build_schreier``, which applies the edge rule
to every vertex at once; setup and the cache loader both call it.

A lifting's column map sends each permutation rank to the graph vertex it
falls on.  Vertices are found through the base-R keys of their row words (R
rows) and one key -> vertex table per shape (``vertex_table``).  A ranking's
key for a lifting sums each candidate's row times R**(n-1-position): that is
the lifting's row word times the ranking's column of ``position_powers``, so
one product gives the keys of many liftings over any set of ranks, which is
how ``cache`` maps every reduced lifting.  ``minimal_paths`` reads a shortest
swap sequence to each reduced lifting off its row word; the transform does
not use it.  When every row of a shape is a union of rows of a finer one,
each of its reduced liftings is a finer reduced lifting with its rows mapped
onto the coarse ones; looking every such pair up in the coarse key table
finds one, and the coarse column map is a fixed vertex map of that
lifting's (``merge_maps``).  The permutahedron itself is the Schreier
graph of the all-ones shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import NamedTuple

import numpy as np

from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    check_dense_n,
    enumerate_ordered_set_partitions,
    multiplicity_constants,
    reading_order_partition,
    reduced_representatives,
    reduced_row_words,
    unrank_words,
    row_word_matrix,
    word_table,
)
from .errors import NumericalError, ResourceLimitError, ValidationError

MAX_MATERIALIZE_N = 8  # dense n! x m matrices are test-scale only
# entries of one key -> vertex table (2 GiB as intp): every shape of the full
# n <= 10 lists and of the n = 11, 12 top-8 lists fits
MAX_KEY_TABLE = 2**28


# ---------------------------------------------------------------------------
# graphs


@dataclass
class SchreierGraph:
    """Quotient graph on the ordered set partitions of one shape.

    ``neighbors[u, s]`` is the vertex that swapping positions s and s+1 of
    u's row word reaches, u itself when the swap stays inside one row (a
    loop), so every vertex has degree n - 1 counting loops.  The Laplacian
    ignores the loops.  ``apply_laplacian`` applies it through this table;
    setup's eigensolve and the loader's residual check both use it.
    """

    shape: IntegerPartition
    row_words: np.ndarray  # (m, n) int8, canonical (lexicographic) order
    neighbors: np.ndarray  # (m, n - 1) intp

    @property
    def n(self) -> int:
        return self.row_words.shape[1]

    @property
    def m(self) -> int:
        return self.row_words.shape[0]

    def apply_laplacian(self, x: np.ndarray) -> np.ndarray:
        """The Laplacian times an (m, k) array, as (n-1) x minus the sum of
        x over each swap's neighbors; a loop's term cancels its share of the
        degree."""
        out = (self.n - 1) * x
        for s in range(self.n - 1):
            out -= x[self.neighbors[:, s]]
        return out

    def vertices(self) -> tuple[OrderedSetPartition, ...]:
        return enumerate_ordered_set_partitions(self.shape)


def build_schreier(shape: IntegerPartition) -> SchreierGraph:
    """The graph from the edge rule: vertices are joined when one adjacent
    swap of element labels (positions s, s+1 of the row word) maps one to the
    other, and a swap inside one row is a loop.  Each swapped word's vertex is
    one lookup in the key -> vertex table away."""
    m = multiplicity_constants(shape).m
    if m > 2_000_000:
        raise ResourceLimitError(f"shape {shape.parts} has {m} vertices")
    row_words = row_word_matrix(shape)  # int8, read-only
    weights = key_powers(shape)
    left = row_words[:, :-1].astype(np.intp)
    right = row_words[:, 1:].astype(np.intp)
    # swapping positions s, s+1 moves the key by (right - left) * (w[s] - w[s+1])
    shift = (right - left) * (weights[:-1] - weights[1:])
    neighbors = vertex_table(shape)[(row_words.astype(np.intp) @ weights)[:, None] + shift]
    if np.any(neighbors < 0):
        raise NumericalError(f"graph for {shape.parts} is not (n-1)-regular")
    return SchreierGraph(shape, row_words, neighbors)


# the benchmark's tracer (perfbench/trace_cli.py) binds this older name
build_schreier_direct = build_schreier


# ---------------------------------------------------------------------------
# characteristic matrices


@dataclass
class CharacteristicMatrix:
    """Sparse row-wise form of the n! x m lifting matrix for one lifting.

    ``col_of[r]`` is the canonical index of the set partition obtained by
    pulling the lifting back through the permutation of rank r, i.e. the unique
    column holding the 1 in row r.
    """

    shape: IntegerPartition
    lifting: OrderedSetPartition
    col_of: np.ndarray  # (n!,) int64

    @property
    def m(self) -> int:
        return multiplicity_constants(self.shape).m


def key_powers(shape: IntegerPartition) -> np.ndarray:
    """(n,) intp: R**(n-1-j) for position j, R = len(shape); a row word dotted
    with it is the word's base-R key."""
    return len(shape) ** np.arange(shape.n - 1, -1, -1, dtype=np.intp)


def vertex_table(shape: IntegerPartition) -> np.ndarray:
    """(R**n,) intp table from a row word's base-R key to its canonical vertex
    index, -1 at keys that are not row words of the shape; refused above
    ``MAX_KEY_TABLE`` entries."""
    size = len(shape) ** shape.n
    if size > MAX_KEY_TABLE:
        raise ResourceLimitError(
            f"shape {shape.parts} needs a {size}-entry key table; the limit is {MAX_KEY_TABLE}"
        )
    keys = row_word_matrix(shape).astype(np.intp) @ key_powers(shape)
    table = np.full(size, -1, dtype=np.intp)
    table[keys] = np.arange(len(keys))
    return table


def position_powers(shape: IntegerPartition, words: np.ndarray) -> np.ndarray:
    """(n, N) float64 table: entry [c, i] is R**(n-1-p), p the position of
    candidate c in ranking i (column i of ``words``, from
    :func:`unrank_words`) and R = len(shape).  A lifting's row word (the row
    of each candidate) times this table is, per ranking, the key of the
    vertex it carries the lifting to.  Every key is an integer below R**n,
    and R <= n <= 12 (``unrank_words`` refuses more), so below 2**53: the
    float product is exact."""
    n, count = words.shape
    powers = np.empty((n, count))
    powers[words, np.arange(count)] = key_powers(shape)[:, None]
    return powers


def suffix_action(
    shape: IntegerPartition, k: int, table: np.ndarray | None = None
) -> np.ndarray:
    """(m, k!) intp table: entry [v, j] is the vertex whose row word is v's
    with its last k positions permuted by tau_j, the j-th lexicographic
    permutation of k items (position n-k+i takes v's entry at n-k+tau_j[i]).

    The ranking of lexicographic rank b*k! + j is that of rank b*k! with its
    last k entries permuted by tau_j, so under any lifting its vertex is
    ``suffix_action[vertex of rank b*k!, j]``.  Rank j < k! is tau_j acting
    on the last k positions alone, so row v is the column map over ranks
    0..k!-1 of v's row word read as a lifting.  ``table`` is the shape's
    :func:`vertex_table`, built here when not given."""
    powers = position_powers(shape, unrank_words(shape.n, np.arange(factorial(k))))
    keys = (row_word_matrix(shape) @ powers).astype(np.intp)
    return (vertex_table(shape) if table is None else table)[keys]


# ---------------------------------------------------------------------------
# coarse shapes read off finer ones


@lru_cache(maxsize=256)
def merged_rows(fine: IntegerPartition, coarse: IntegerPartition) -> tuple[int, ...] | None:
    """The coarse row of each row of ``fine`` when ``fine`` has more rows and
    every row of ``coarse`` is a union of its rows, else None.  Fine rows
    are placed in order, each in the first coarse row that leaves the rest
    placeable; rows with equal room left are tried once."""
    if fine.n != coarse.n or len(fine) <= len(coarse):
        return None

    def place(i: int, room: tuple[int, ...]) -> tuple[int, ...] | None:
        if i == len(fine):
            return ()
        for r, left in enumerate(room):
            if left >= fine.parts[i] and left not in room[:r]:
                rest = place(i + 1, room[:r] + (left - fine.parts[i],) + room[r + 1 :])
                if rest is not None:
                    return (r, *rest)
        return None

    return place(0, coarse.parts)


class RowMerge(NamedTuple):
    """How every reduced lifting of a coarse shape reads off one of a finer
    shape's (see :func:`merge_maps`)."""

    source: np.ndarray  # (z_coarse,) intp: the fine reduced lifting
    map_index: np.ndarray  # (z_coarse,) intp: its row of ``rows`` and ``vertex_maps``
    rows: np.ndarray  # (q, R_fine) intp: the coarse row of each fine row
    vertex_maps: np.ndarray  # (q, m_fine) intp: fine vertex -> coarse vertex


@lru_cache(maxsize=64)
def merge_maps(fine: IntegerPartition, coarse: IntegerPartition) -> RowMerge:
    """Per reduced lifting of ``coarse``, a reduced lifting of ``fine`` and a
    vertex map that carry every ranking to the coarse lifting's vertex.

    A row map sends each fine row to a coarse row: ``merged_rows(fine,
    coarse)`` with equal-size fine rows permuted.  A ranking carries a fine
    lifting to the vertex whose row word is the lifting's read along the
    ranking, so the row map applied to that word's entries gives the vertex
    the ranking carries the row-mapped lifting to.  Every (row map, fine
    reduced lifting) pair is looked up in the coarse key -> vertex table, and
    each coarse reduced lifting keeps the first pair that lands on it:
    ``vertex_maps[map_index[t]][fine column map of source[t]]`` is coarse
    lifting t's column map.  A lifting no pair reaches raises
    ``NumericalError``."""
    base = merged_rows(fine, coarse)
    if base is None:
        raise ValidationError(f"rows of {coarse.parts} are not unions of rows of {fine.parts}")
    # each group of equal-size fine rows takes every arrangement of its base
    # coarse rows; parts are nonincreasing, so the groups join in row order
    groups = [[base[f] for f, part in enumerate(fine.parts) if part == size]
              for size in dict.fromkeys(fine.parts)]
    arrangements = [sorted(set(permutations(group))) for group in groups]
    row_maps = np.array([sum(maps, ()) for maps in product(*arrangements)], dtype=np.intp)
    fine_reduced = reduced_row_words(fine)
    coarse_reduced = reduced_row_words(coarse)
    z = len(coarse_reduced)
    table = vertex_table(coarse)
    weights = key_powers(coarse)
    # coarse vertex -> its reduced lifting, z at every other vertex
    lifting = np.full(multiplicity_constants(coarse).m, z, dtype=np.intp)
    lifting[table[coarse_reduced.astype(np.intp) @ weights]] = np.arange(z)
    reached = lifting[table[row_maps[:, fine_reduced] @ weights]].reshape(-1)
    found, first = np.unique(reached, return_index=True)
    if not np.array_equal(found[:z], np.arange(z)):
        raise NumericalError(f"a reduced lifting of {coarse.parts} reads off none of {fine.parts}")
    used, source = np.divmod(first[:z], len(fine_reduced))
    used, map_index = np.unique(used, return_inverse=True)
    rows = row_maps[used]
    vertex_maps = table[rows[:, row_word_matrix(fine)] @ weights]
    out = RowMerge(source, map_index, rows, vertex_maps)
    for arr in out:
        arr.setflags(write=False)
    return out


def characteristic_column_map(
    shape: IntegerPartition, lifting: OrderedSetPartition, ranks: np.ndarray | None = None
) -> np.ndarray:
    """Column index per permutation rank of ``ranks`` (all n! when not given)
    for an arbitrary lifting."""
    n = shape.n
    check_dense_n(n)
    if lifting.shape != shape:
        raise ValidationError(
            f"lifting {lifting.label()} does not have shape {shape.parts}"
        )
    words = unrank_words(n, np.arange(factorial(n)) if ranks is None else ranks)
    keys = np.asarray(lifting.row_word, dtype=np.float64) @ position_powers(shape, words)
    return vertex_table(shape)[keys.astype(np.intp)]


def build_characteristic(shape: IntegerPartition) -> CharacteristicMatrix:
    """Lifting matrix for the reading-order set partition, with the row/column
    count invariants checked."""
    pi1 = reading_order_partition(shape)
    col_of = characteristic_column_map(shape, pi1)
    m = multiplicity_constants(shape).m
    counts = np.bincount(col_of, minlength=m)
    if not np.all(counts == factorial(shape.n) // m):
        raise NumericalError(f"column counts wrong for shape {shape.parts}")
    return CharacteristicMatrix(shape, pi1, col_of)


# ---------------------------------------------------------------------------
# minimal paths to the reduced liftings


@dataclass(frozen=True)
class LiftingPath:
    """Minimal sequence of adjacent swaps carrying the reading-order partition
    to one reduced representative, applied first to last."""

    target: OrderedSetPartition
    target_index: int  # position among the reduced representatives
    swaps: tuple[int, ...]  # each entry i means the transposition (i, i+1)


def minimal_paths(shape: IntegerPartition) -> tuple[LiftingPath, ...]:
    """A minimal swap sequence to every reduced representative, in canonical
    order.  Read backwards, a path undoes its target's first descent (a row
    word position whose entry exceeds the next) until the word is sorted,
    which is the reading-order partition's.  Each undo removes one
    inversion, so every path length equals the target's inversion count,
    the fewest adjacent swaps that reach it.  Undoing swap i moves element
    i from a higher row to a lower one and i + 1 back, so a block minimum
    moves by one at most, past no other block's; when the two rows have
    equal size, the lower one's minimum is already below i.  So every step
    stays reduced.  The transform does not use these paths."""
    paths = []
    for t, rep in enumerate(reduced_representatives(shape)):
        word = list(rep.row_word)
        undone: list[int] = []
        while s := next((i for i in range(1, len(word)) if word[i - 1] > word[i]), 0):
            word[s - 1], word[s] = word[s], word[s - 1]
            undone.append(s)
        paths.append(LiftingPath(rep, t, tuple(reversed(undone))))
    return tuple(paths)


# ---------------------------------------------------------------------------
# index maps for the left action


_SWAP_MAP_BLOCK = 1 << 16  # ranks per block, bounding the int64 position table


@lru_cache(maxsize=2)
def adjacent_swap_maps(n: int) -> np.ndarray:
    """Index maps for left multiplication by each adjacent transposition; the
    transform does not use them, the benchmark's tracer binds the name.

    ``maps[i - 1][rank(w)] = rank of w with candidate labels i and i+1 swapped``
    (1-based labels).  Shape (n-1, n!), dtype int64; every map is an
    involution.  The swap changes only the Lehmer digit at the earlier of the
    two labels' positions p, by +1 when the smaller label comes first and by -1
    otherwise, so the swapped rank is ``rank +- (n-1-p)!``.
    """
    check_dense_n(n)
    words = word_table(n)
    weight = np.array([factorial(n - 1 - p) for p in range(n)], dtype=np.int64)
    maps = np.empty((n - 1, len(words)), dtype=np.int64)
    for lo in range(0, len(words), _SWAP_MAP_BLOCK):
        pos = np.argsort(words[lo : lo + _SWAP_MAP_BLOCK], axis=1)  # label -> position
        hi = lo + len(pos)
        ranks = np.arange(lo, hi, dtype=np.int64)
        for i in range(1, n):
            a, b = pos[:, i - 1], pos[:, i]
            maps[i - 1, lo:hi] = ranks + np.where(a < b, weight[a], -weight[b])
    maps.setflags(write=False)
    return maps

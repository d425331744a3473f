"""Schreier graphs of the permutahedron, their characteristic (lifting) matrices,
minimal swap paths to each reduced lifting, and the length-n! index maps that
reorder signals under the left action of the symmetric group.

The permutahedron itself is the Schreier graph of the all-ones shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
import scipy.sparse as sp

from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    check_dense_n,
    enumerate_ordered_set_partitions,
    inversion_count,
    multiplicity_constants,
    rank_words,
    reading_order_partition,
    reduced_representatives,
    row_word_matrix,
    word_table,
)
from .errors import NumericalError, ResourceLimitError, ValidationError

MAX_MATERIALIZE_N = 8  # dense n! x m matrices are test-scale only


# ---------------------------------------------------------------------------
# graphs


@dataclass
class SchreierGraph:
    """Quotient graph on the ordered set partitions of one shape.

    ``adjacency`` is symmetric with 0/1 off-diagonal entries and self-loop
    counts on the diagonal; every vertex satisfies off-diagonal degree plus
    loop count = n - 1.  The Laplacian ignores the loops.
    """

    shape: IntegerPartition
    row_words: np.ndarray  # (m, n) int8, canonical (lexicographic) order
    adjacency: sp.csr_matrix  # int32

    @property
    def n(self) -> int:
        return self.row_words.shape[1]

    @property
    def m(self) -> int:
        return self.row_words.shape[0]

    @property
    def loops(self) -> np.ndarray:
        return self.adjacency.diagonal()

    @property
    def laplacian(self) -> sp.csr_matrix:
        lap = -self.adjacency.astype(np.float64)
        lap.setdiag((self.n - 1) - self.loops.astype(np.float64))
        return lap.tocsr()

    def vertices(self) -> tuple[OrderedSetPartition, ...]:
        return enumerate_ordered_set_partitions(self.shape)


def _assemble_recursive(comp: tuple[int, ...], n: int):
    """Vertices, edges, and loop counts for the graph on ordered set partitions
    whose block sizes form the composition ``comp`` (zeros allowed).

    Works bottom-up over the element n: the graph splits into one subgraph per
    row that can hold n, with the subgraphs joined by (n-1, n) edges.
    """
    if n == 0:
        return [()], [], [0]
    verts: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    loops: list[int] = []
    block_index: list[tuple[int, dict[tuple[int, ...], int], int]] = []
    for i, size in enumerate(comp):
        if size == 0:
            continue
        sub_comp = comp[:i] + (size - 1,) + comp[i + 1 :]
        sub_verts, sub_edges, sub_loops = _assemble_recursive(sub_comp, n - 1)
        offset = len(verts)
        lookup = {rw: idx for idx, rw in enumerate(sub_verts)}
        block_index.append((i, lookup, offset))
        verts.extend(rw + (i,) for rw in sub_verts)
        edges.extend((offset + u, offset + v) for u, v in sub_edges)
        # the swap (n-1, n) fixes a vertex exactly when both sit in row i
        loops.extend(
            lc + (1 if n >= 2 and rw[n - 2] == i else 0)
            for lc, rw in zip(sub_loops, sub_verts)
        )
    if n >= 2:
        # cross edges for the swap (n-1, n): exchange the rows of n-1 and n
        lookup_by_row = {i: (lookup, offset) for i, lookup, offset in block_index}
        for i, lookup, offset in block_index:
            for rw, idx in lookup.items():
                j = rw[n - 2]
                if j == i or j not in lookup_by_row:
                    continue
                partner_sub = rw[: n - 2] + (i,)
                other_lookup, other_offset = lookup_by_row[j]
                v = other_offset + other_lookup[partner_sub]
                u = offset + idx
                if u < v:
                    edges.append((u, v))
    return verts, edges, loops


def build_schreier(shape: IntegerPartition) -> SchreierGraph:
    """Assemble the graph recursively over the row holding the largest element,
    then reindex the vertices to canonical order."""
    n = shape.n
    m = multiplicity_constants(shape).m
    if m > 2_000_000:
        raise ResourceLimitError(f"shape {shape.parts} has {m} vertices")
    verts, edges, loops = _assemble_recursive(shape.parts, n)
    order = sorted(range(m), key=verts.__getitem__)
    relabel = np.empty(m, dtype=np.int64)
    relabel[order] = np.arange(m)

    row_words = np.array([verts[i] for i in order], dtype=np.int8)
    row_words.setflags(write=False)
    loops_arr = np.asarray(loops, dtype=np.int32)[order]
    if edges:
        eu, ev = np.array(edges, dtype=np.int64).T
        eu, ev = relabel[eu], relabel[ev]
    else:
        eu = ev = np.empty(0, dtype=np.int64)
    rows = np.concatenate([eu, ev, np.arange(m)])
    cols = np.concatenate([ev, eu, np.arange(m)])
    vals = np.concatenate(
        [np.ones(2 * len(eu), dtype=np.int32), loops_arr]
    )
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))

    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    if not np.all(degrees == n - 1):
        raise NumericalError(f"graph for {shape.parts} is not (n-1)-regular")
    return SchreierGraph(shape, row_words, adjacency)


def build_schreier_direct(shape: IntegerPartition) -> SchreierGraph:
    """Reference construction straight from the edge rule: vertices are joined
    when one adjacent swap of element labels maps one to the other."""
    n = shape.n
    row_words = np.array(row_word_matrix(shape), dtype=np.int8)
    m = row_words.shape[0]
    index = {tuple(rw): i for i, rw in enumerate(row_words.tolist())}
    rows, cols, vals = [], [], []
    loops = np.zeros(m, dtype=np.int32)
    for u, rw in enumerate(row_words.tolist()):
        for s in range(n - 1):
            if rw[s] == rw[s + 1]:
                loops[u] += 1
                continue
            other = list(rw)
            other[s], other[s + 1] = other[s + 1], other[s]
            v = index[tuple(other)]
            rows.append(u)
            cols.append(v)
            vals.append(1)
    rows.extend(range(m))
    cols.extend(range(m))
    vals.extend(loops.tolist())
    adjacency = sp.csr_matrix(
        (np.array(vals, dtype=np.int32), (rows, cols)), shape=(m, m)
    )
    row_words.setflags(write=False)
    return SchreierGraph(shape, row_words, adjacency)


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

    def dense(self) -> np.ndarray:
        n = self.shape.n
        if n > MAX_MATERIALIZE_N:
            raise ResourceLimitError(f"dense characteristic matrix refused for n={n}")
        out = np.zeros((factorial(n), self.m))
        out[np.arange(factorial(n)), self.col_of] = 1.0
        return out


def characteristic_column_map(
    shape: IntegerPartition, lifting: OrderedSetPartition
) -> np.ndarray:
    """Column index per permutation rank for an arbitrary lifting."""
    n = shape.n
    check_dense_n(n)
    if lifting.shape != shape:
        raise ValidationError(
            f"lifting {lifting.label()} does not have shape {shape.parts}"
        )
    words = word_table(n)
    rows_of_element = np.asarray(lifting.row_word, dtype=np.int8)
    pulled = rows_of_element[words]  # row word of sigma^{-1}(lifting) per rank
    num_rows = len(shape)
    weights = (num_rows ** np.arange(n - 1, -1, -1)).astype(np.int64)
    keys = pulled.astype(np.int64) @ weights
    canon_keys = np.asarray(row_word_matrix(shape), dtype=np.int64) @ weights
    # canonical enumeration is lexicographic, so its keys are already sorted
    col_of = np.searchsorted(canon_keys, keys)
    return col_of


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


def characteristic_by_block_recursion(shape: IntegerPartition) -> CharacteristicMatrix:
    """Reference implementation assembling the reading-order lifting matrix from
    block sub-matrices over the row that holds the largest element.  Kept as a
    cross-check for the vectorized path; test scale only."""
    n = shape.n
    if n > MAX_MATERIALIZE_N:
        raise ResourceLimitError(f"block recursion cross-check refused for n={n}")

    def reading_rows(comp: tuple[int, ...]) -> list[int]:
        rows: list[int] = []
        for i, size in enumerate(comp):
            rows.extend([i] * size)
        return rows

    def column_row_word(word: tuple[int, ...], comp: tuple[int, ...]) -> tuple[int, ...]:
        if not word:
            return ()
        value = word[-1]
        j = reading_rows(comp)[value]
        sub_comp = comp[:j] + (comp[j] - 1,) + comp[j + 1 :]
        sub_word = tuple(v - 1 if v > value else v for v in word[:-1])
        return column_row_word(sub_word, sub_comp) + (j,)

    words = word_table(n).tolist()
    lookup = {
        osp.row_word: i
        for i, osp in enumerate(enumerate_ordered_set_partitions(shape))
    }
    col_of = np.array(
        [lookup[column_row_word(tuple(w), shape.parts)] for w in words],
        dtype=np.int64,
    )
    return CharacteristicMatrix(shape, reading_order_partition(shape), col_of)


# ---------------------------------------------------------------------------
# minimal paths to the reduced liftings


@dataclass(frozen=True)
class LiftingPath:
    """Minimal sequence of adjacent swaps carrying the reading-order partition
    to one reduced representative, applied first to last."""

    target: OrderedSetPartition
    target_index: int  # position among the reduced representatives
    vertex_index: int  # position in the full canonical enumeration
    swaps: tuple[int, ...]  # each entry i means the transposition (i, i+1)


def minimal_paths(shape: IntegerPartition) -> tuple[LiftingPath, ...]:
    """Breadth-first search from the reading-order partition over the reduced
    representatives; every path length equals the target's inversion count.

    Swapping the elements of an inverted adjacent pair preserves the
    increasing-minimum ordering of equal-size blocks, so the search restricted
    to reduced representatives still finds paths that are minimal in the full
    graph.  Ties break toward the lowest canonical index.
    """
    n = shape.n
    reps = reduced_representatives(shape)
    rep_index = {rep.row_word: t for t, rep in enumerate(reps)}
    z = len(reps)
    parent = np.full(z, -1, dtype=np.int64)
    parent_swap = np.zeros(z, dtype=np.int64)
    dist = np.full(z, -1, dtype=np.int64)
    dist[0] = 0
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for t in sorted(frontier):
            rw = reps[t].row_word
            for s in range(1, n):
                if rw[s - 1] == rw[s]:
                    continue
                other = list(rw)
                other[s - 1], other[s] = other[s], other[s - 1]
                u = rep_index.get(tuple(other))
                if u is None or dist[u] >= 0:
                    continue
                dist[u] = dist[t] + 1
                parent[u] = t
                parent_swap[u] = s
                next_frontier.append(u)
        frontier = next_frontier
    if np.any(dist < 0):
        raise NumericalError(f"reduced representatives not reachable for {shape.parts}")

    full_index = {
        osp.row_word: i
        for i, osp in enumerate(enumerate_ordered_set_partitions(shape))
    }
    paths = []
    for t, rep in enumerate(reps):
        swaps: list[int] = []
        u = t
        while parent[u] >= 0:
            swaps.append(int(parent_swap[u]))
            u = int(parent[u])
        swaps.reverse()
        if len(swaps) != inversion_count(rep):
            raise NumericalError(
                f"path to {rep.label()} has length {len(swaps)}, "
                f"expected {inversion_count(rep)}"
            )
        paths.append(
            LiftingPath(rep, t, full_index[rep.row_word], tuple(swaps))
        )
    return tuple(paths)


def bfs_tree_arrays(shape: IntegerPartition) -> tuple[np.ndarray, np.ndarray]:
    """(parent, swap) arrays over the reduced representatives; parent[0] = -1."""
    paths = minimal_paths(shape)
    z = len(paths)
    parent = np.full(z, -1, dtype=np.int64)
    swap = np.zeros(z, dtype=np.int64)
    lookup = {p.target.row_word: p.target_index for p in paths}
    for p in paths:
        if p.swaps:
            rw = list(p.target.row_word)
            s = p.swaps[-1]
            rw[s - 1], rw[s] = rw[s], rw[s - 1]
            parent[p.target_index] = lookup[tuple(rw)]
            swap[p.target_index] = s
    return parent, swap


# ---------------------------------------------------------------------------
# index maps for the left action


@lru_cache(maxsize=2)
def adjacent_swap_maps(n: int) -> np.ndarray:
    """Index maps for left multiplication by each adjacent transposition.

    ``maps[i - 1][rank(w)] = rank of w with candidate labels i and i+1 swapped``.
    Shape (n-1, n!), dtype int64.
    """
    check_dense_n(n)
    words = word_table(n)
    maps = np.empty((n - 1, factorial(n)), dtype=np.int64)
    for i in range(1, n):
        relabeled = words.copy()
        lo = words == (i - 1)
        hi = words == i
        relabeled[lo] = i
        relabeled[hi] = i - 1
        maps[i - 1] = rank_words(relabeled)
    maps.setflags(write=False)
    return maps


def permutation_vector(n: int, swaps: tuple[int, ...]) -> np.ndarray:
    """Composed index map for the swap sequence: with sigma the product of the
    swaps (later swaps composing on the left), ``map[rank(b)] = rank(sigma b)``,
    so reordering a signal f as ``f[map]`` realizes the left action of
    sigma^{-1}."""
    maps = adjacent_swap_maps(n)
    vec = np.arange(factorial(n), dtype=np.int64)
    for s in swaps:
        vec = maps[s - 1][vec]
    return vec


def invert_index_map(vec: np.ndarray) -> np.ndarray:
    inv = np.empty_like(vec)
    inv[vec] = np.arange(len(vec), dtype=vec.dtype)
    return inv


def project(
    col_of: np.ndarray,
    values: np.ndarray,
    m: int,
    perm_vec: np.ndarray | None = None,
) -> np.ndarray:
    """Reorder-then-accumulate: the signal projected onto the Schreier graph
    through the lifting reached by ``perm_vec`` (reading-order when None)."""
    if len(values) != len(col_of):
        raise ValidationError("signal length does not match the column map")
    if perm_vec is not None:
        values = values[perm_vec]
    return np.bincount(col_of, weights=values, minlength=m)


def lift(
    col_of: np.ndarray,
    x: np.ndarray,
    perm_vec: np.ndarray | None = None,
) -> np.ndarray:
    """Reorder-then-scatter: transpose of :func:`project` as a linear map."""
    spread = np.asarray(x, dtype=np.float64)[col_of]
    if perm_vec is None:
        return spread
    out = np.empty_like(spread)
    out[perm_vec] = spread
    return out

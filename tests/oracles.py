"""Slow reference constructions that the package's vectorized paths are
checked against; test scale only."""

import csv
import io
import json
from math import factorial
from typing import Iterator, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from permaframe.combinatorics import (
    ColumnStrictTableau,
    Permutation,
    IntegerPartition,
    OrderedSetPartition,
    dominates,
    enumerate_ordered_set_partitions,
    hook_dimension,
    kostka,
    multiplicity_constants,
    partitions_of,
    rank_words,
    reading_order_partition,
    row_word_matrix,
    word_table,
)
from permaframe.ballots import BallotFile, word_dtype
from permaframe.cache import FrameCache
from permaframe.errors import NumericalError, ResourceLimitError, ValidationError
from permaframe.frame import CoefficientTable, Signal, sign_flip
from permaframe.schreier import (
    MAX_MATERIALIZE_N,
    CharacteristicMatrix,
    build_schreier,
)
from permaframe.spectral import ShapeSpectrum, _finalize_spectrum


def reference_parse_ballots(text: str) -> tuple[int, list[tuple[Permutation, int]]]:
    """(n, records) of a ballot file parsed line by line, one ``Permutation``
    and one Python int per record, raising at the first bad line."""
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
    return n, records


def ballot_file(
    n: int, records: list[tuple[Permutation, int]], label: str = "ballots"
) -> BallotFile:
    """A ``BallotFile`` holding the given (ranking, count) records."""
    words = np.array([r.word for r, _c in records], dtype=word_dtype(n)).reshape(-1, n)
    counts = np.array([c for _r, c in records], dtype=np.int64)
    return BallotFile(n, words, counts, label)


def reference_csv_text(table: CoefficientTable) -> str:
    """The coefficient table through ``csv.writer``, one row per atom."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shape", "lambda", "k", "partition", "alpha"])
    for atom, alpha in table.iter_rows():
        writer.writerow(
            [
                atom.shape.label(),
                f"{atom.eigenvalue:.6f}",
                atom.k,
                atom.lifting.label(),
                repr(alpha),
            ]
        )
    return buf.getvalue()


def reference_json_text(table: CoefficientTable) -> str:
    """The coefficient table through ``json.dumps``, one object per atom."""
    rows = [
        {
            "shape": atom.shape.label(),
            "lambda": round(atom.eigenvalue, 6),
            "k": atom.k,
            "partition": atom.lifting.label(),
            "alpha": alpha,
        }
        for atom, alpha in table.iter_rows()
    ]
    return json.dumps({"n": table.n, "provenance": table.provenance, "rows": rows}, indent=1)


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


def reference_enumeration(gamma: IntegerPartition) -> tuple[OrderedSetPartition, ...]:
    """Every ordered set partition of the shape as a validated object, in
    row-word order, by recursion over the multiset of rows."""
    return tuple(OrderedSetPartition(w) for w in _multiset_words(list(gamma.parts)))


def is_reduced_representative(osp: OrderedSetPartition) -> bool:
    """True when equal-size blocks appear in order of increasing minimum element,
    i.e. the row word is lexicographically least in its orbit under permuting
    equal-size blocks."""
    blocks = osp.blocks
    for i in range(len(blocks) - 1):
        if len(blocks[i]) == len(blocks[i + 1]) and blocks[i][0] > blocks[i + 1][0]:
            return False
    return True


def reference_synthesize(
    cache: FrameCache,
    table: CoefficientTable,
    flipped: CoefficientTable | None = None,
) -> Signal:
    """Synthesis as one walk per shape over all n! ranks at once, one
    accumulator per table, each lifting's weights formed as it is visited."""
    tables = [table] if flipped is None else [table, flipped]
    accs = [np.zeros(factorial(cache.n)) for _ in tables]
    jobs: dict[IntegerPartition, list] = {}
    for acc, tab in zip(accs, tables):
        for block in tab.blocks:
            vectors = cache.bundle(block.shape).spectrum.vectors[:, : block.num_rows]
            jobs.setdefault(block.shape, []).append((acc, vectors, block))
    ranks = np.arange(factorial(cache.n))
    for shape, shape_jobs in jobs.items():
        for t, col in cache.iter_lifting_maps(shape, ranks):
            for acc, vectors, block in shape_jobs:
                w = block.c_bar * (vectors @ block.alphas[:, t])
                acc += w[col]
    if flipped is not None:
        accs[0] += sign_flip(Signal(cache.n, accs[1])).values
    return Signal(cache.n, accs[0])


def invert_index_map(vec: np.ndarray) -> np.ndarray:
    inv = np.empty_like(vec)
    inv[vec] = np.arange(len(vec), dtype=vec.dtype)
    return inv


def relabeled_swap_maps(n: int) -> np.ndarray:
    """Adjacent-swap index maps by relabeling every word and re-ranking it:
    ``maps[i - 1][rank(w)]`` is the rank of w with labels i and i+1 swapped."""
    words = word_table(n)
    maps = np.empty((n - 1, factorial(n)), dtype=np.int64)
    for i in range(1, n):
        relabeled = words.copy()
        relabeled[words == i - 1] = i
        relabeled[words == i] = i - 1
        maps[i - 1] = rank_words(relabeled)
    return maps


def characteristic_by_block_recursion(shape: IntegerPartition) -> CharacteristicMatrix:
    """The reading-order lifting matrix assembled from block sub-matrices over
    the row that holds the largest element."""
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


def recursive_schreier(shape: IntegerPartition) -> tuple[np.ndarray, sp.csr_matrix]:
    """The Schreier graph assembled recursively over the row holding the
    largest element, then reindexed to canonical order: (row words, CSR
    adjacency with the loop counts on the diagonal)."""
    n = shape.n
    m = multiplicity_constants(shape).m
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
    return row_words, adjacency


def inversion_count(osp: OrderedSetPartition) -> int:
    """Pairs (i, j) with i < j and j in a strictly higher (earlier) row than i:
    the length of a minimal swap path from the reading-order partition."""
    rw = osp.row_word
    return sum(1 for i in range(osp.n) for j in range(i + 1, osp.n) if rw[j] < rw[i])


def project(col_of: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Accumulate a signal onto the Schreier graph through the lifting whose
    column map is ``col_of``."""
    return np.bincount(col_of, weights=values, minlength=m)


def lift(col_of: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Spread a vertex vector over the rankings: the transpose of
    :func:`project` as a linear map."""
    return np.asarray(x, dtype=np.float64)[col_of]


# ---------------------------------------------------------------------------
# the deflation eigensolver: lifting dominators' eigenvectors through Kostka
# tableaux, then solving on the orthogonal complement of their span


def tableau_to_set_partition(t: ColumnStrictTableau) -> OrderedSetPartition:
    """Set partition of shape content(t): element j goes to row r when the jth
    box of the tableau in reading order contains r."""
    entries = [v for row in t.rows for v in row]
    return OrderedSetPartition(tuple(v - 1 for v in entries))


def lift_map_mask(
    gamma: IntegerPartition,
    nu: IntegerPartition,
    xi: OrderedSetPartition,
) -> tuple[np.ndarray, int]:
    """0/1 support of the map carrying functions on the nu-graph into the
    gamma-graph through the lifting labelled by xi (a set partition of shape
    gamma built from a column-strict tableau of shape nu).

    Entry (p, q) is nonzero exactly when the pairwise block-intersection
    pattern of (vertex p of gamma, vertex q of nu) matches that of
    (xi, reading-order partition of nu); all nonzero entries share one integer
    value, returned alongside the mask.
    """
    if xi.shape != gamma:
        raise ValidationError("lifting label does not have the target shape")
    rw_g = np.asarray(row_word_matrix(gamma), dtype=np.int16)
    rw_n = np.asarray(row_word_matrix(nu), dtype=np.int16)
    width = len(nu)
    xi_rw = np.asarray(xi.row_word, dtype=np.int16)
    pi1_rw = np.zeros(nu.n, dtype=np.int16)
    pos = 0
    for row, size in enumerate(nu.parts):
        pi1_rw[pos : pos + size] = row
        pos += size
    target = np.sort(xi_rw * width + pi1_rw)
    counts = np.bincount(target)
    value = 1
    for c in counts:
        value *= factorial(int(c))

    m_g, m_n = rw_g.shape[0], rw_n.shape[0]
    mask = np.empty((m_g, m_n), dtype=bool)
    chunk = max(1, int(4_000_000 // max(1, m_n * nu.n)))
    for lo in range(0, m_g, chunk):
        hi = min(m_g, lo + chunk)
        codes = rw_g[lo:hi, None, :] * width + rw_n[None, :, :]
        codes.sort(axis=2)
        mask[lo:hi] = (codes == target[None, None, :]).all(axis=2)
    return mask, value


def lift_between_shapes(
    nu: IntegerPartition,
    gamma: IntegerPartition,
    xi: OrderedSetPartition,
    x: np.ndarray,
) -> np.ndarray:
    """Image on the gamma-graph of a vector from the new piece of the nu-graph;
    eigenvectors map to eigenvectors with the same eigenvalue, and distinct
    tableaux give linearly independent images."""
    if not dominates(nu, gamma):
        raise ValidationError(
            f"{nu.parts} must strictly dominate {gamma.parts} for lifting"
        )
    mask, value = lift_map_mask(gamma, nu, xi)
    return value * (mask @ np.asarray(x, dtype=np.float64))


def deflate_and_solve(
    shape: IntegerPartition,
    laplacian,
    dominator_spectra: Mapping[IntegerPartition, ShapeSpectrum],
) -> ShapeSpectrum:
    """Eigenpairs of the new irreducible piece of one Schreier graph.

    Lifts the eigenvectors of every strictly dominating shape through all of
    its column-strict tableaux, orthonormalizes the lifted family (its rank
    must be m - d), and eigendecomposes the Laplacian restricted to the
    orthogonal complement.
    """
    lap = laplacian.toarray() if sp.issparse(laplacian) else np.asarray(laplacian)
    m = lap.shape[0]
    d = hook_dimension(shape)
    doms = [nu for nu in partitions_of(shape.n) if dominates(nu, shape)]
    missing = [nu for nu in doms if nu not in dominator_spectra]
    if missing:
        raise ValidationError(
            f"missing dominator spectra for {[nu.parts for nu in missing]}"
        )

    if not doms:
        # the one-row shape: a single vertex, eigenvalue exactly 0
        vectors = np.ones((1, 1))
        return ShapeSpectrum(shape, (0.0,), (0,), (1,), vectors)

    lifted = []
    for nu in doms:
        count, tableaux = kostka(shape, nu)
        if count == 0:
            raise NumericalError(f"no tableaux for dominator {nu.parts}")
        basis = dominator_spectra[nu].vectors
        for tab in tableaux:
            mask, _value = lift_map_mask(shape, nu, tableau_to_set_partition(tab))
            lifted.append(mask.astype(np.float64) @ basis)
    span = np.column_stack(lifted)
    if span.shape[1] != m - d:
        raise NumericalError(
            f"lifted multiplicities for {shape.parts} give {span.shape[1]} columns, "
            f"expected {m - d}"
        )
    u, s, _ = np.linalg.svd(span, full_matrices=True)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    if rank != m - d:
        raise NumericalError(
            f"lifted span for {shape.parts} has rank {rank}, expected {m - d}"
        )
    complement = u[:, rank:]
    block = complement.T @ lap @ complement
    block = 0.5 * (block + block.T)
    values, coeffs = scipy.linalg.eigh(block)
    vectors = complement @ coeffs
    return _finalize_spectrum(shape, values, vectors, lap)


def deflation_spectra(shapes) -> dict[IntegerPartition, ShapeSpectrum]:
    """Deflation spectra of the given shapes and of every shape dominating
    one of them, solved in descending lexicographic order."""
    closed = {nu for g in shapes for nu in partitions_of(g.n) if nu == g or dominates(nu, g)}
    spectra: dict[IntegerPartition, ShapeSpectrum] = {}
    for g in sorted(closed, key=lambda s: s.parts, reverse=True):
        doms = {nu: spec for nu, spec in spectra.items() if dominates(nu, g)}
        spectra[g] = deflate_and_solve(g, build_schreier(g).laplacian, doms)
    return spectra

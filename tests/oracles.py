"""Slow reference constructions that the package's vectorized paths are
checked against; test scale only."""

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as iperm
from math import factorial
from typing import Iterator, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from permaframe.combinatorics import (
    Permutation,
    IntegerPartition,
    OrderedSetPartition,
    check_exact_n,
    dominates,
    enumerate_ordered_set_partitions,
    hook_dimension,
    lex_rank,
    multiplicity_constants,
    partitions_of,
    rank_signs,
    rank_words,
    reading_order_partition,
    reduced_representatives,
    row_word_matrix,
    unrank_words,
    weakly_dominates,
    word_table,
)
from permaframe.ballots import BallotFile, word_dtype
from permaframe.cache import FrameCache
from permaframe.errors import NumericalError, ResourceLimitError, ValidationError
from permaframe.frame import (
    AtomId,
    _check_signal,
    CoefficientTable,
    ShapeBlock,
    Signal,
    analyze,
    analyze_with_conjugates,
    conjugate_energy_rows,
    isotypic_project,
    sign_flip,
)
from permaframe.schreier import (
    MAX_MATERIALIZE_N,
    CharacteristicMatrix,
    SchreierGraph,
    build_schreier,
    characteristic_column_map,
    key_powers,
    vertex_table,
)
from permaframe.spectral import ShapeSpectrum, _finalize_spectrum, polytabloid_matrix

MAX_MALLOWS_N = 6
DENSE_ORACLE_MAX = 5040


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


# ---------------------------------------------------------------------------
# permutations acting on set partitions, one object at a time


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The transposition (i, i+1) as a permutation of 1..n."""
    if not 1 <= i <= n - 1:
        raise ValidationError(f"adjacent transposition index {i} out of range for n={n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(s: Permutation, t: Permutation) -> Permutation:
    """Function composition s∘t: j -> s(t(j))."""
    return Permutation(tuple(s(t(j)) for j in range(1, s.n + 1)))


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


def act(p: Permutation, osp: OrderedSetPartition) -> OrderedSetPartition:
    """Apply a permutation to the elements: j in block i maps to p(j) in block i."""
    if p.n != osp.n:
        raise ValidationError("permutation and set partition sizes differ")
    row_word = [0] * osp.n
    for j in range(1, osp.n + 1):
        row_word[p(j) - 1] = osp.row_word[j - 1]
    return OrderedSetPartition(tuple(row_word))


def equal_block_orbit(osp: OrderedSetPartition) -> tuple[OrderedSetPartition, ...]:
    """All reorderings of the blocks that permute equal-size blocks only."""
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


def reference_label(osp: OrderedSetPartition) -> str:
    """The block label of one set partition, block by block."""
    sep = "" if osp.n <= 9 else ","
    return "|".join(sep.join(str(e) for e in block) for block in osp.blocks)


def reference_bfs_tree_arrays(shape: IntegerPartition) -> tuple[np.ndarray, np.ndarray]:
    """The swap tree's (parent, swap) arrays from a breadth-first search over
    the reduced representatives as objects: each level in canonical order,
    each lifting's swaps in increasing order, the first edge into a lifting
    kept."""
    n = shape.n
    reps = reduced_representatives(shape)
    rep_index = {rep.row_word: t for t, rep in enumerate(reps)}
    parent = np.full(len(reps), -1, dtype=np.int64)
    swap = np.zeros(len(reps), dtype=np.int64)
    seen = {0}
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for t in sorted(frontier):
            rw = reps[t].row_word
            for s in range(1, n):
                if rw[s - 1] == rw[s]:
                    continue
                u = rep_index.get(rw[: s - 1] + (rw[s], rw[s - 1]) + rw[s + 1 :])
                if u is None or u in seen:
                    continue
                seen.add(u)
                parent[u] = t
                swap[u] = s
                next_frontier.append(u)
        frontier = next_frontier
    assert len(seen) == len(reps)
    return parent, swap


def reference_csv_text(table: CoefficientTable) -> str:
    """The coefficient table through ``csv.writer``, one row per atom."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shape", "lambda", "k", "partition", "alpha"])
    for atom, alpha in table.iter_rows():
        writer.writerow(
            [
                atom.shape.label(),
                f"{atom.eigenvalue:.9f}",
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
            "lambda": round(atom.eigenvalue, 9),
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


def reference_analysis(
    cache: FrameCache,
    signal: Signal,
    shapes,
    max_eigs: int | None = None,
    flipped_shapes=(),
) -> tuple[list[ShapeBlock], list[ShapeBlock]]:
    """Blocks of ``signal`` on ``shapes`` and of its sign flip on
    ``flipped_shapes``, from every lifting of every shape mapped over the
    signal's nonzeros: each lifting's even and odd rankings are summed apart,
    in rank order, into the bins 2v + parity of their vertices v."""
    support = np.flatnonzero(signal.values)
    odd = (rank_signs(signal.n, support) < 0).astype(np.intp)
    direct: list[ShapeBlock] = []
    flipped: list[ShapeBlock] = []
    for shape in shapes:
        bundle = cache.bundle(shape)
        rows = bundle.spectrum.eigenvector_rows()[:max_eigs]
        vectors = bundle.spectrum.vectors[:, : len(rows)]
        jobs = [(np.add, direct)]
        if shape in flipped_shapes:
            jobs.append((np.subtract, flipped))
        alphas = [np.empty((len(rows), bundle.z)) for _ in jobs]
        for t, col in cache.iter_lifting_maps(shape, support):
            sums = np.bincount(
                2 * col + odd, weights=signal.values[support], minlength=2 * bundle.m
            )
            for (combine, _out), a in zip(jobs, alphas):
                a[:, t] = vectors.T @ combine(sums[0::2], sums[1::2])
        keys = np.array([row[1] for row in rows], dtype=np.int64)
        ks = np.array([row[2] for row in rows], dtype=np.int64)
        for (_combine, out), a in zip(jobs, alphas):
            a *= bundle.c_bar
            out.append(ShapeBlock(shape, bundle.c_bar, keys, ks, a))
    return direct, flipped


def reference_synthesize(
    cache: FrameCache,
    table: CoefficientTable,
    flipped: CoefficientTable | None = None,
) -> Signal:
    """Synthesis as one pass per shape over all n! ranks at once, one
    accumulator per table, each lifting's weights formed as it is mapped."""
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


# ---------------------------------------------------------------------------
# atoms, baselines and checks built on the transform


def delta_signal(ranking: Permutation) -> Signal:
    """The signal that is 1 at ``ranking`` and 0 elsewhere."""
    out = Signal.zeros(ranking.n)
    out.values[lex_rank(ranking)] = 1.0
    return out


def all_atom_ids(cache: FrameCache, shape: IntegerPartition) -> list[AtomId]:
    bundle = cache.bundle(shape)
    return [
        AtomId(shape, key, k, rep)
        for (_lam, key, k) in bundle.spectrum.eigenvector_rows()
        for rep in reduced_representatives(shape)
    ]


def conjugate_shape_energy(
    cache: FrameCache, signal: Signal, shape
) -> list[tuple[int, float]]:
    """Eigenvalue-resolved energies for a shape recovered through its
    transpose: analyze the sign-flipped signal on the transposed shape and
    reflect each eigenvalue across half the spectral range."""
    part = IntegerPartition.of(shape)
    _check_signal(cache, signal)
    if part in set(cache.shapes):
        table = analyze(cache, signal, shapes=[part])
        return [(key, e) for _shape, key, e in table.energy_rows()]
    conj = part.transpose()
    if conj not in set(cache.shapes):
        raise ValidationError(
            f"neither {part.parts} nor its transpose {conj.parts} is cached"
        )
    _direct, flipped = analyze_with_conjugates(cache, signal, shapes=[conj])
    return sorted((key, e) for _shape, key, e in conjugate_energy_rows(flipped))


def mallows_baseline(
    cache: FrameCache, signal: Signal, shape
) -> tuple[tuple[OrderedSetPartition, ...], np.ndarray]:
    """Inner products of the signal with the projected pair-indicator spanning
    set of one symmetry type.

    Entry (p, q) is the inner product of the signal's isotypic projection with
    the indicator of rankings placing the candidate blocks of partition p into
    the slot blocks of partition q.  Validation feature; the m^2 coefficient
    count confines it to small n.
    """
    part = IntegerPartition.of(shape)
    if cache.n > MAX_MALLOWS_N:
        raise ResourceLimitError(
            f"projected-indicator baseline refused for n={cache.n} (> {MAX_MALLOWS_N})"
        )
    projected = isotypic_project(cache, signal, part).values
    osps = enumerate_ordered_set_partitions(part)
    m = len(osps)
    coeffs = np.empty((m, m))
    for p, pi in enumerate(osps):
        cmap = characteristic_column_map(part, pi)
        coeffs[p, :] = np.bincount(cmap, weights=projected, minlength=m)
    return osps, coeffs


def standard_basis_check(cache: FrameCache, shape, eigen_key: int, k: int) -> bool:
    """True when the atoms lifted through the standard ordered set partitions
    span a space of the full irreducible dimension."""
    part = IntegerPartition.of(shape)
    if cache.n > MAX_MATERIALIZE_N:
        raise ResourceLimitError(f"standard basis check refused for n={cache.n}")
    bundle = cache.bundle(part)
    col = None
    for idx, (_lam, key, kk) in enumerate(bundle.spectrum.eigenvector_rows()):
        if key == eigen_key and kk == k:
            col = idx
            break
    if col is None:
        raise ValidationError(f"no eigenvector with key {eigen_key}, k={k}")
    v = bundle.spectrum.vectors[:, col]
    columns = [
        v[characteristic_column_map(part, osp)]
        for osp in standard_ordered_set_partitions(part)
    ]
    mat = np.column_stack(columns)
    rank = np.linalg.matrix_rank(mat, tol=1e-10)
    return bool(rank == bundle.d)


def dense_oracle(laplacian) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition for cross-checks; desk scale only."""
    lap = laplacian.toarray() if sp.issparse(laplacian) else np.asarray(laplacian)
    if lap.shape[0] > DENSE_ORACLE_MAX:
        raise ResourceLimitError(
            f"dense oracle refused for {lap.shape[0]} vertices (> {DENSE_ORACLE_MAX})"
        )
    return scipy.linalg.eigh(0.5 * (lap + lap.T))


def serialize_ballots(ballots: BallotFile) -> str:
    lines = [f"n={ballots.n}"]
    lines.extend(
        " ".join(map(str, word)) + f",{count}"
        for word, count in zip(ballots.words.tolist(), ballots.counts.tolist())
    )
    return "\n".join(lines) + "\n"


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


def gathered_column_map(
    shape: IntegerPartition, lifting: OrderedSetPartition, ranks: np.ndarray | None = None
) -> np.ndarray:
    """A lifting's column map at ``ranks`` (all n! when not given) with each
    ranking's key summed per position j, the row of the candidate ranked at j
    times R**(n-1-j), one gather per position: independent of the
    ``position_powers`` product that ``iter_lifting_maps`` and
    ``characteristic_column_map`` use."""
    n = shape.n
    words = unrank_words(n, np.arange(factorial(n)) if ranks is None else ranks)
    rows = np.asarray(lifting.row_word, dtype=np.intp)
    keys = np.zeros(words.shape[1], dtype=np.intp)
    for j, power in enumerate(key_powers(shape)):
        keys += (rows * power).take(words[j])
    return vertex_table(shape)[keys]


def dense_characteristic(char: CharacteristicMatrix) -> np.ndarray:
    """The n! x m 0/1 lifting matrix of a column map: row r holds its 1 in
    column ``col_of[r]``."""
    n = char.shape.n
    if n > MAX_MATERIALIZE_N:
        raise ResourceLimitError(f"dense characteristic matrix refused for n={n}")
    out = np.zeros((factorial(n), char.m))
    out[np.arange(factorial(n)), char.col_of] = 1.0
    return out


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


def loop_counts(graph: SchreierGraph) -> np.ndarray:
    """(m,) loop count per vertex, from its row word: the adjacent positions
    whose elements share a row."""
    return (graph.row_words[:, :-1] == graph.row_words[:, 1:]).sum(axis=1)


def csr_adjacency(graph: SchreierGraph) -> sp.csr_matrix:
    """Symmetric CSR matrix (int32) of the graph's neighbor table, with 0/1
    off-diagonal entries and the loop counts on the diagonal."""
    m = graph.m
    loops = graph.neighbors == np.arange(m)[:, None]
    u, s = np.nonzero(~loops)
    rows = np.concatenate([u, np.arange(m)])
    cols = np.concatenate([graph.neighbors[u, s], np.arange(m)])
    vals = np.concatenate([np.ones(len(u), dtype=np.int32), loops.sum(axis=1, dtype=np.int32)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def csr_laplacian(graph: SchreierGraph) -> sp.csr_matrix:
    """The graph's Laplacian as a CSR matrix (float64): n - 1 less the loop
    count on the diagonal, minus the edges off it."""
    adjacency = csr_adjacency(graph)
    lap = -adjacency.astype(np.float64)
    lap.setdiag((graph.n - 1) - adjacency.diagonal().astype(np.float64))
    return lap.tocsr()


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
# column-strict tableaux, Kostka numbers, and the deflation eigensolver:
# lifting dominators' eigenvectors through Kostka tableaux, then solving on
# the orthogonal complement of their span


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
    return _finalize_spectrum(shape, values, vectors, lambda x: lap @ x)


def deflation_spectra(shapes) -> dict[IntegerPartition, ShapeSpectrum]:
    """Deflation spectra of the given shapes and of every shape dominating
    one of them, solved in descending lexicographic order."""
    closed = {nu for g in shapes for nu in partitions_of(g.n) if nu == g or dominates(nu, g)}
    spectra: dict[IntegerPartition, ShapeSpectrum] = {}
    for g in sorted(closed, key=lambda s: s.parts, reverse=True):
        doms = {nu: spec for nu, spec in spectra.items() if dominates(nu, g)}
        spectra[g] = deflate_and_solve(g, csr_laplacian(build_schreier(g)), doms)
    return spectra


def reference_specht_spectrum(shape: IntegerPartition) -> ShapeSpectrum:
    """The Specht-module solve through a CSR Laplacian and ``scipy.linalg.eigh``,
    with the package's finalization and residual check."""
    lap = csr_laplacian(build_schreier(shape))
    q, _ = np.linalg.qr(polytabloid_matrix(shape))
    block = q.T @ (lap @ q)
    values, coeffs = scipy.linalg.eigh(0.5 * (block + block.T))
    return _finalize_spectrum(shape, values, q @ coeffs, lambda x: lap @ x)

"""The tight Parseval frame transform: analysis coefficients, synthesis,
energy decompositions, isotypic projections, graph Fourier transform and the
transpose-shape sign trick.

Both directions map block leaders through each shape's d standard-tableau
liftings S only (:meth:`~permaframe.cache.FrameCache.iter_lifting_maps`,
:class:`~permaframe.cache.StandardLiftings`).  Lifting t's coefficients are
c_bar V^T x_t = c_bar F u_t, F the signal's Fourier coefficient at the shape
in the stored eigenbasis V and u_t the row of V at the vertex rank 0 lands
on, so the block is alpha = c_bar F U^T with U^T U = (z/m) I and U_S
invertible.  The rank b*k! leads the k! consecutive ranks from it on, whose
rankings differ from its own only in their last k entries, so their
vertices follow from the leader's through the shape's suffix action table
(:func:`~permaframe.schreier.suffix_action`).  Synthesis folds each block to
the standard liftings and maps every leader at k = ``SUFFIX_LENGTH``.
Analysis maps the leaders of the blocks that the signal's nonzeros touch, at
a k chosen from the support (k = 1 maps the nonzeros themselves), and sums
each vertex's even and odd rankings apart, which also yields the
sign-flipped signal's accumulation: that completes the shapes whose
transpose is not cached (:func:`analyze_with_conjugates`).  Only source
shapes are mapped over the signal (:func:`_sources`): a cached shape whose
rows are unions of a source's rows reads its bins off a source lifting's
through a vertex map (:func:`~permaframe.schreier.merge_maps`).  Neither
direction materializes length-n! atoms or index maps; atoms exist only for
tests and small-n inspection.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, replace
from math import factorial
from typing import Iterator, Sequence, TextIO

import numpy as np

from .cache import FrameCache, SchreierBundle
from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    block_labels,
    check_dense_n,
    partitions_of,
    rank_signs,
    reduced_representatives,
    reduced_row_words,
    sign_vector,
)
from .errors import ResourceLimitError, ValidationError
from .schreier import (
    MAX_MATERIALIZE_N, characteristic_column_map, merge_maps, merged_rows, suffix_action,
    vertex_table,
)
from .spectral import key_to_value, reflected_key

# Synthesis maps one ranking per block of SUFFIX_LENGTH! consecutive ranks
# (see synthesize), SYNTHESIS_BLOCK // SUFFIX_LENGTH! of them at a time.  Per
# lifting it builds one (m, SUFFIX_LENGTH!) weight table and gathers a block's
# rows from it, so a larger block spreads that table over more rankings.
# Measured on a 2-vCPU Xeon VM, suffix length 4 beat 3 and 5 (with per-rank
# gathers).  With the suffix tables, in-process medians of 2**14, 2**15, 2**16
# and 2**17 ranks per block were 0.31, 0.26, 0.20 and 0.21 s at n = 8 (full
# list) and 0.19, 0.15, 0.16 and 0.20 s at n = 9 (top 5 shapes).
SUFFIX_LENGTH = 4
SYNTHESIS_BLOCK = 1 << 16
# Analysis maps one ranking per k!-block of ranks that the signal's nonzeros
# touch, for the largest k <= SUFFIX_LENGTH whose touched blocks hold at most
# ANALYSIS_FILL times as many ranks as there are nonzeros (see _walked_blocks).
# Measured on the same VM with uniformly random supports (n = 8, full list;
# n = 9, top 5 shapes): k = 4 at 1.25x took 0.21-0.26 s against 0.48-0.58 s
# for k = 1, and it still won at 2x, but k = 2 lost to k = 1 from about 1.4x.
# A touched 2-block never holds more than 2 ranks, so a bound near 2 would put
# every sparse tally on k = 2; 1.25 keeps them on k = 1.
ANALYSIS_FILL = 1.25


# ---------------------------------------------------------------------------
# signals


class Signal:
    """A real vector over all n! rankings, indexed by lexicographic rank.

    ``Signal(n, values)`` holds the dense vector.  ``Signal.from_support``
    holds only the support, the ascending ranks of the nonzero entries and
    their values, as a tally does; it forms ``values`` on its first read
    (synthesis, ``reconstruct``, library callers), after which it is a dense
    signal.  Analysis, energies and projections read :meth:`support` only,
    which for a dense signal is its ``flatnonzero``."""

    def __init__(self, n: int, values: np.ndarray) -> None:
        self.n = n
        self.values = values

    @classmethod
    def from_support(cls, n: int, ranks: np.ndarray, weights: np.ndarray) -> "Signal":
        """The signal with ``weights[i]`` at rank ``ranks[i]`` and zeros
        elsewhere; the ranks ascend strictly, and zero weights are dropped."""
        ranks = np.asarray(ranks, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if ranks.shape != weights.shape or ranks.ndim != 1:
            raise ValidationError("support ranks and weights must be two equal-length vectors")
        ascending = len(ranks) == 0 or (
            ranks[0] >= 0 and ranks[-1] < factorial(n) and np.all(ranks[1:] > ranks[:-1])
        )
        if not ascending:
            raise ValidationError(f"support ranks must ascend strictly in 0..{factorial(n) - 1}")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("signal has non-finite entries")
        nonzero = weights != 0
        if not nonzero.all():
            ranks, weights = ranks[nonzero], weights[nonzero]
        signal = cls.__new__(cls)
        signal.n, signal._values, signal._support = n, None, (ranks, weights)
        return signal

    @property
    def values(self) -> np.ndarray:
        """The dense vector of all n! entries, formed from the support on
        first read."""
        if self._values is None:
            check_dense_n(self.n)
            ranks, weights = self._support
            values = np.zeros(factorial(self.n))
            values[ranks] = weights
            self._values, self._support = values, None
        return self._values

    @values.setter
    def values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (factorial(self.n),):
            raise ValidationError(
                f"signal for n={self.n} must have length {factorial(self.n)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("signal has non-finite entries")
        self._values, self._support = values, None

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, weights): the ascending ranks of the nonzero entries and
        their values."""
        if self._support is not None:
            return self._support
        ranks = np.flatnonzero(self._values)
        return ranks, self._values[ranks]

    def _held(self) -> np.ndarray:
        """The dense vector or the support's weights, whichever is held."""
        return self._values if self._support is None else self._support[1]

    def norm2(self) -> float:
        """Squared Euclidean norm (the signal's energy).  An einsum, not the
        BLAS dot, which under threaded OpenBLAS took up to 8 ms over a 9!
        tally on a 2-vCPU Xeon VM, against 0.2 ms."""
        held = self._held()
        return float(np.einsum("i,i->", held, held))

    def total(self) -> float:
        return float(self._held().sum())

    @classmethod
    def zeros(cls, n: int) -> "Signal":
        check_dense_n(n)
        return cls(n, np.zeros(factorial(n)))

    @classmethod
    def constant(cls, n: int, value: float = 1.0) -> "Signal":
        check_dense_n(n)
        return cls(n, np.full(factorial(n), float(value)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Signal":
        check_dense_n(n)
        return cls(n, rng.standard_normal(factorial(n)))


def sign_flip(signal: Signal) -> Signal:
    """Pointwise product with the permutation signs."""
    return Signal(signal.n, signal.values * sign_vector(signal.n))


# ---------------------------------------------------------------------------
# coefficient tables


@dataclass(frozen=True)
class AtomId:
    """Identifies one frame atom: shape, eigenvalue key, basis index within the
    eigenvalue, and the reduced lifting.

    When an eigenvalue repeats inside a shape, the split across k follows the
    deterministic basis fixed at setup; per-k interpretations are meaningful
    only relative to that basis (energies summed over k are basis-free).
    """

    shape: IntegerPartition
    eigen_key: int
    k: int
    lifting: OrderedSetPartition

    @property
    def eigenvalue(self) -> float:
        return key_to_value(self.eigen_key)


@dataclass
class ShapeBlock:
    """All analysis coefficients for one shape: row r is the r-th stored
    eigenvector (eigenvalues ascending, then k), column t the t-th reduced
    lifting in canonical order.

    Analysis makes a block from ``fourier``, c_bar F over all d stored
    eigenvectors (see :func:`_analyze_blocks`), and its shape's ``bundle``:
    its alphas, c_bar F U^T over every row cut to the block's rows, are
    formed on first read, and its energies need only c_bar F, since
    U^T U = (z/m) I."""

    shape: IntegerPartition
    c_bar: float
    keys: np.ndarray  # (R,) int64
    ks: np.ndarray  # (R,) int64
    _alphas: np.ndarray | None = None  # (R, z)
    fourier: np.ndarray | None = None  # (d, d)
    bundle: SchreierBundle | None = field(default=None, repr=False)

    @property
    def alphas(self) -> np.ndarray:
        if self._alphas is None:
            b = self.bundle
            alphas = self.fourier @ b.spectrum.vectors[b.liftings.vertices].T
            rows = self.num_rows
            self._alphas = alphas if rows == len(alphas) else alphas[:rows].copy()
        return self._alphas

    @property
    def num_rows(self) -> int:
        return len(self.keys)

    @property
    def z(self) -> int:
        return self.alphas.shape[1] if self.bundle is None else self.bundle.z

    def row_energies(self) -> np.ndarray:
        """The squared norm of each row of alphas, read off c_bar F when the
        block holds it."""
        if self.fourier is None:
            return (self.alphas**2).sum(axis=1)
        return (self.fourier[: self.num_rows] ** 2).sum(axis=1) * (self.bundle.z / self.bundle.m)

    def energy(self) -> float:
        return float(self.row_energies().sum())

    def energy_by_key(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for key, e in zip(self.keys.tolist(), self.row_energies().tolist()):
            out[key] = out.get(key, 0.0) + e
        return out


def _csv_field(label: str) -> str:
    """A shape or partition label as one csv field under minimal quoting:
    labels hold only digits, '|' and ',', so only a comma calls for quotes."""
    return f'"{label}"' if "," in label else label


@dataclass
class CoefficientTable:
    """Analysis coefficients grouped by shape, in the canonical report order:
    shapes descending-lexicographically, eigenvalues ascending, then basis
    index, then lifting."""

    n: int
    blocks: list[ShapeBlock]
    provenance: dict = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return sum(b.num_rows * b.z for b in self.blocks)

    def total_energy(self) -> float:
        return sum(b.energy() for b in self.blocks)

    def shape_energies(self) -> dict[IntegerPartition, float]:
        return {b.shape: b.energy() for b in self.blocks}

    def energy_rows(self) -> list[tuple[IntegerPartition, int, float]]:
        rows = []
        for b in self.blocks:
            for key, e in sorted(b.energy_by_key().items()):
                rows.append((b.shape, key, e))
        return rows

    def block(self, shape: IntegerPartition) -> ShapeBlock:
        for b in self.blocks:
            if b.shape == shape:
                return b
        raise ValidationError(f"no coefficients for shape {shape.parts}")

    def iter_rows(self) -> Iterator[tuple[AtomId, float]]:
        for b in self.blocks:
            reps = reduced_representatives(b.shape)
            for r in range(b.num_rows):
                for t, rep in enumerate(reps):
                    yield (
                        AtomId(b.shape, int(b.keys[r]), int(b.ks[r]), rep),
                        float(b.alphas[r, t]),
                    )

    def row(self, index: int) -> tuple[AtomId, float]:
        """The ``index``-th row of ``iter_rows``, without building the others;
        an index below 0 or past the end raises IndexError."""
        if index < 0:
            raise IndexError("negative row index")
        for b in self.blocks:
            if index < b.num_rows * b.z:
                r, t = divmod(index, b.z)
                rep = OrderedSetPartition(tuple(reduced_row_words(b.shape)[t].tolist()))
                return AtomId(b.shape, int(b.keys[r]), int(b.ks[r]), rep), float(b.alphas[r, t])
            index -= b.num_rows * b.z
        raise IndexError("row index past the end of the table")

    def filter(
        self,
        shapes: Sequence[IntegerPartition | Sequence[int]] | None = None,
        max_eigs: int | None = None,
    ) -> "CoefficientTable":
        """The blocks of ``shapes`` (all when not given; a shape the table
        lacks raises, as in :meth:`block`), each cut to its first
        ``max_eigs`` rows."""
        _check_max_eigs(max_eigs)
        keep = None
        if shapes is not None:
            keep = {self.block(IntegerPartition.of(s)).shape for s in shapes}
        blocks = []
        for b in self.blocks:
            if keep is not None and b.shape not in keep:
                continue
            rows = slice(max_eigs)
            alphas = None if b._alphas is None else b._alphas[rows]
            blocks.append(replace(b, keys=b.keys[rows], ks=b.ks[rows], _alphas=alphas))
        provenance = dict(self.provenance)
        provenance["filtered"] = True
        return CoefficientTable(self.n, blocks, provenance)

    # -- serialization ----------------------------------------------------
    # The writers stream the text to an open file one eigen-row at a time, so
    # they hold one row's lines, never the table's text.  Labels are
    # formatted once per block and lambda/k once per row; each alpha is the
    # repr of a Python float, which is what csv and json write.

    def write_csv(self, fh: TextIO) -> None:
        """One line per atom: shape, lambda, k, partition, alpha; labels
        quoted by csv's minimal-quoting rule."""
        fh.write("shape,lambda,k,partition,alpha\n")
        for b in self.blocks:
            shape = _csv_field(b.shape.label())
            parts = [_csv_field(label) for label in block_labels(reduced_row_words(b.shape))]
            for key, k, alphas in zip(b.keys.tolist(), b.ks.tolist(), b.alphas):
                head = f"{shape},{key_to_value(key):.9f},{k},"
                fh.write("".join(f"{head}{p},{a!r}\n" for p, a in zip(parts, alphas.tolist())))

    def write_json(self, fh: TextIO) -> None:
        """``{"n", "provenance", "rows"}`` as ``json.dumps(..., indent=1)``
        lays it out, one object per atom in ``rows``."""
        header = json.dumps(
            {"n": self.n, "provenance": self.provenance, "rows": []}, indent=1
        )
        rows = self._json_rows()
        first = next(rows, None)
        if first is None:
            fh.write(header)
            return
        # the empty list closes the header: "rows": []\n}
        fh.write(header[: -len("[]\n}")] + "[\n" + first)
        for text in rows:
            fh.write(",\n" + text)
        fh.write("\n ]\n}")

    def _json_rows(self) -> Iterator[str]:
        """The objects of ``rows``, one eigen-row's at a time."""
        for b in self.blocks:
            shape = json.dumps(b.shape.label())
            parts = [json.dumps(label) for label in block_labels(reduced_row_words(b.shape))]
            for key, k, alphas in zip(b.keys.tolist(), b.ks.tolist(), b.alphas):
                head = (
                    f'  {{\n   "shape": {shape},\n   "lambda": {round(key_to_value(key), 9)!r},'
                    f'\n   "k": {k},\n   "partition": '
                )
                yield ",\n".join(
                    f'{head}{p},\n   "alpha": {a!r}\n  }}' for p, a in zip(parts, alphas.tolist())
                )

    def to_csv_text(self) -> str:
        """The text ``write_csv`` writes."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_json_text(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# analysis and synthesis


def _resolve_shapes(
    cache: FrameCache, shapes: Sequence[IntegerPartition | Sequence[int]] | None
) -> list[IntegerPartition]:
    if shapes is None:
        return list(cache.shapes)
    out = []
    for s in shapes:
        part = IntegerPartition.of(s)
        cache.bundle(part)  # raises when absent
        out.append(part)
    return sorted(set(out), key=lambda s: s.parts, reverse=True)


def _check_max_eigs(max_eigs: int | None) -> None:
    if max_eigs is not None and max_eigs < 1:
        raise ValidationError(f"max_eigs={max_eigs} must be at least 1")


def _check_signal(cache: FrameCache, signal: Signal) -> None:
    if signal.n != cache.n:
        raise ValidationError(
            f"signal is for n={signal.n} but the cache is for n={cache.n}"
        )


def _walked_blocks(n: int, support: np.ndarray) -> tuple[int, np.ndarray]:
    """(k, blocks): the largest suffix length k <= min(``SUFFIX_LENGTH``, n)
    whose k!-blocks touched by the sorted ``support`` hold at most
    ``ANALYSIS_FILL`` times as many ranks as it, and the indices of those
    blocks, ascending.  A block's ranks b*k!..b*k! + k! - 1 all fall in one
    touched (k+1)!-block, so the ratio only grows with k."""
    k, blocks = 1, support
    for j in range(2, min(SUFFIX_LENGTH, n) + 1):
        coarse = support // factorial(j)
        first = np.ones(len(coarse), dtype=bool)
        np.not_equal(coarse[1:], coarse[:-1], out=first[1:])
        touched = coarse[first]
        if len(touched) * factorial(j) > ANALYSIS_FILL * len(support):
            break
        k, blocks = j, touched
    return k, blocks


def _sources(cache: FrameCache, nonzeros: int) -> dict[IntegerPartition, IntegerPartition]:
    """The shape whose lifting maps yield each cached shape's vertex sums.

    The candidates are the cached shapes with fewer than ``nonzeros`` bins
    (2m, even and odd apart); a candidate that no other one refines is a
    source.  Each cached shape whose rows are unions of a source's rows reads
    its sums off the source with the fewest vertices (ties in cache order),
    and every other shape, sources included, is mapped itself.  A coarser
    shape has fewer vertices, so every candidate has a source."""
    few = [s for s in cache.shapes if 2 * cache.bundle(s).m < nonzeros]
    sources = sorted(
        (s for s in few if not any(merged_rows(f, s) is not None for f in few)),
        key=lambda s: cache.bundle(s).m,
    )
    return {
        shape: next((s for s in sources if merged_rows(s, shape) is not None), shape)
        for shape in cache.shapes
    }


class _Projector:
    """One shape's coefficient blocks from its vertex sums at its standard
    liftings S: X_S holds one row per lifting of S, E + O for the signal
    and, when flipped, E - O for its sign flip."""

    def __init__(self, bundle: SchreierBundle, flipped: bool) -> None:
        self.bundle = bundle
        combines = [np.add, np.subtract] if flipped else [np.add]
        self.jobs = [(combine, np.empty((bundle.d, bundle.m))) for combine in combines]

    def add(self, j: int, sums: np.ndarray, bin_map: np.ndarray | None = None) -> None:
        """Row j of X_S from its lifting's bins, or from a source lifting's
        bins ``sums`` carried to its bins by ``bin_map``."""
        if bin_map is not None:
            sums = np.bincount(bin_map, weights=sums, minlength=2 * self.bundle.m)
        for combine, x in self.jobs:
            combine(sums[0::2], sums[1::2], out=x[j])

    def blocks(self, max_eigs: int | None) -> list[ShapeBlock]:
        """c_bar F = c_bar V^T X_S^T U_S^-T per job, over every row, and
        X_S freed.  The stored eigenvectors of every shape but (n) are
        orthogonal to the constant, so each row of X_S first loses its
        rounded mean: exact on integer bins, it keeps a large constant part
        of a tally out of the products."""
        b = self.bundle
        rows = b.spectrum.eigenvector_rows()[:max_eigs]
        keys = np.array([row[1] for row in rows], dtype=np.int64)
        ks = np.array([row[2] for row in rows], dtype=np.int64)
        out = []
        for _combine, x in self.jobs:
            if len(b.shape) > 1:
                x -= np.rint(x.mean(axis=1, keepdims=True))
            fourier = (b.spectrum.vectors.T @ x.T) @ b.liftings.inverse.T
            fourier *= b.c_bar
            out.append(ShapeBlock(b.shape, b.c_bar, keys, ks, None, fourier, b))
        self.jobs = []
        return out


def _analyze_blocks(
    cache: FrameCache,
    signal: Signal,
    shape_list: list[IntegerPartition],
    max_eigs: int | None,
    flipped_shapes: Sequence[IntegerPartition] = (),
) -> tuple[list[ShapeBlock], list[ShapeBlock]]:
    """Blocks of ``signal`` on ``shape_list`` and of ``sign_flip(signal)`` on
    ``flipped_shapes`` (a subset), from one pass over each source shape's
    liftings that the shapes' standard liftings read.

    The signal is read through its support alone
    (:meth:`~permaframe.frame.Signal.support`).  Each lifting maps one
    ranking, the leader, per k!-block of ranks that the support touches (k
    from :func:`_walked_blocks`; k = 1 maps the support ranks themselves),
    whose entries are the support's weights scattered into those blocks, and
    expands it to its block through ``suffix_action(shape, k)``, as
    synthesis does.  Each rank goes to bin
    2v + p, v its vertex and p the parity of its ranking, which is the
    leader's parity xor that of its suffix permutation.  So one ``bincount``
    sums each vertex's even and odd ranks apart, each in rank order, and the
    ranks a block holds outside the support add exact zeros: with E and O
    those sums, the signal's projection is E + O and its sign flip's is E - O,
    bit for bit the same for every k.  Analyzing ``sign_flip(signal)`` swaps
    O for -O exactly, so the flipped blocks equal its direct ones.

    Only each shape's standard liftings are read (see :class:`_Projector`).
    A shape with a source (:func:`_sources`) is not mapped: each lifting's
    bins are one ``bincount`` of a source lifting's bins through a vertex
    map, which keeps parity, and a source maps only the liftings read off
    it.  The sources depend only on the cache and the nonzero count, so the
    identities above, subsets and ``max_eigs`` keep every bit."""
    ranks, weights = signal.support()
    k, blocks = _walked_blocks(signal.n, ranks)
    walked = blocks * factorial(k)
    odd = (rank_signs(signal.n, walked) < 0).astype(np.intp)
    # the touched blocks' entries, zeros included, rank after rank
    slot = np.searchsorted(blocks, ranks // factorial(k))
    slot *= factorial(k)
    slot += ranks % factorial(k)
    values = np.zeros(len(blocks) * factorial(k))
    values[slot] = weights
    del slot  # support-sized, freed before the maps
    # parity of rank b*k! + j given its leader's parity (row 0 even, row 1 odd)
    parity = np.array([[0], [1]]) ^ (rank_signs(k, np.arange(factorial(k))) < 0)
    spread = np.empty((len(blocks), factorial(k)), dtype=np.intp)
    plan = _sources(cache, len(ranks))
    del ranks, weights  # a dense signal's support is formed here: freed before the maps
    walks: dict[IntegerPartition, list[IntegerPartition]] = {}
    for shape in shape_list:
        walks.setdefault(plan[shape], []).append(shape)
    made: dict[IntegerPartition, list[ShapeBlock]] = {}
    # in cache order, each source group's X_S filled, turned into blocks and
    # freed before the next source is mapped
    for source in [s for s in cache.shapes if s in walks]:
        bundle = cache.bundle(source)
        projectors = {
            shape: _Projector(cache.bundle(shape), shape in flipped_shapes)
            for shape in walks[source]
        }
        # per source lifting read: (projector, its row of X_S, source bin -> its bin)
        readers: dict[int, list] = {}
        for shape, projector in projectors.items():
            reads = [(t, None) for t in projector.bundle.liftings.standard.tolist()]
            if shape != source:
                merge = merge_maps(source, shape)
                # source bin 2v + p -> bin 2 vertex_map[v] + p, per row map
                pairs = 2 * merge.vertex_maps[:, :, None] + [0, 1]
                bin_maps = pairs.reshape(len(merge.rows), -1)
                reads = [(int(merge.source[t]), bin_maps[merge.map_index[t]]) for t, _ in reads]
            for j, (t, bin_map) in enumerate(reads):
                readers.setdefault(t, []).append((projector, j, bin_map))
        table = vertex_table(source)
        # row 2v + p: the bins of a block whose leader is at v with parity p
        action = suffix_action(source, k, table)
        expand = (2 * action[:, None, :] + parity).reshape(2 * bundle.m, -1)
        for t, col in cache.iter_lifting_maps(source, walked, sorted(readers), table=table):
            bins = np.multiply(col, 2, out=col)
            bins += odd
            # the indices are in range; "clip" lets take write into spread
            # directly, where "raise" would buffer
            bins = expand.take(bins, axis=0, out=spread, mode="clip").reshape(-1)
            sums = np.bincount(bins, weights=values, minlength=2 * bundle.m)
            for projector, j, bin_map in readers[t]:
                projector.add(j, sums, bin_map)
        del table  # one shape's key table at a time
        for shape, projector in projectors.items():
            made[shape] = projector.blocks(max_eigs)
    direct: list[ShapeBlock] = []
    flipped: list[ShapeBlock] = []
    for shape in shape_list:
        for out, block in zip((direct, flipped), made[shape]):
            out.append(block)
    return direct, flipped


def _table(
    n: int, blocks: list[ShapeBlock], dataset: str, max_eigs: int | None = None
) -> CoefficientTable:
    provenance = {
        "dataset": dataset,
        "shapes": [b.shape.label() for b in blocks],
        "max_eigs": max_eigs,
    }
    return CoefficientTable(n, blocks, provenance)


def analyze(
    cache: FrameCache,
    signal: Signal,
    shapes: Sequence[IntegerPartition | Sequence[int]] | None = None,
    max_eigs: int | None = None,
    dataset: str = "",
) -> CoefficientTable:
    """Analysis coefficients of a signal against the cached frame.

    Per shape, the signal is projected onto the Schreier graph through the
    column map of each standard lifting, and every reduced lifting's
    coefficients follow (see :func:`_analyze_blocks`).  ``max_eigs`` keeps
    only the first min(max_eigs, d) eigenvectors per shape (eigenvalues
    ascending), the rows the full table holds.
    """
    _check_max_eigs(max_eigs)
    _check_signal(cache, signal)
    blocks, _ = _analyze_blocks(cache, signal, _resolve_shapes(cache, shapes), max_eigs)
    return _table(cache.n, blocks, dataset, max_eigs)


def analyze_with_conjugates(
    cache: FrameCache,
    signal: Signal,
    shapes: Sequence[IntegerPartition | Sequence[int]] | None = None,
    dataset: str = "",
) -> tuple[CoefficientTable, CoefficientTable]:
    """The transpose-shape sign trick: ``(direct, flipped)``.

    ``direct`` is ``analyze(cache, signal, shapes)``; ``flipped`` is the table
    of ``sign_flip(signal)`` on those of ``shapes`` whose transpose is not
    among them.  Tensoring with the sign representation carries shape gamma to
    its transpose and eigenvalue lambda to 2(n-1) - lambda, so ``flipped``
    holds the missing transpose shapes' components (see
    :func:`conjugate_energy_rows`).  Both tables come from one pass per shape
    and are bit-identical to analyzing each signal on its own.
    """
    _check_signal(cache, signal)
    shape_list = _resolve_shapes(cache, shapes)
    have = set(shape_list)
    conj = [s for s in shape_list if s.transpose() not in have]
    direct, flipped = _analyze_blocks(cache, signal, shape_list, None, conj)
    return _table(cache.n, direct, dataset), _table(cache.n, flipped, dataset)


def conjugate_energy_rows(
    flipped: CoefficientTable,
) -> list[tuple[IntegerPartition, int, float]]:
    """Energy rows of a sign-flipped table read as rows of the transposed
    shapes: each shape is transposed and each eigenvalue key reflected across
    2(n-1)."""
    return [
        (shape.transpose(), reflected_key(flipped.n, key), e)
        for shape, key, e in flipped.energy_rows()
    ]


def _check_synthesis_block(cache: FrameCache, block: ShapeBlock) -> np.ndarray:
    """The stored eigenvectors a table block combines, once its rows, its
    liftings and its frame constant are those of the cached shape."""
    bundle = cache.bundle(block.shape)
    expected = (len(block.keys), bundle.z)
    if block.alphas.shape != expected:
        raise ValidationError(
            f"table alphas for {block.shape.parts} have shape {block.alphas.shape}, "
            f"not {expected}"
        )
    if block.c_bar != bundle.c_bar:
        raise ValidationError(
            f"table frame constant for {block.shape.parts} is {block.c_bar!r}, "
            f"not the cache's {bundle.c_bar!r}"
        )
    stored_keys = [row[1] for row in bundle.spectrum.eigenvector_rows()]
    if list(block.keys) != stored_keys[: block.num_rows]:
        raise ValidationError(
            f"table rows for {block.shape.parts} do not match the cache spectrum"
        )
    return bundle.spectrum.vectors[:, : block.num_rows]


def synthesize(
    cache: FrameCache,
    table: CoefficientTable,
    flipped: CoefficientTable | None = None,
) -> Signal:
    """Linear combination of the atoms weighted by the table, plus the sign
    flip of the combination weighted by ``flipped`` when given.

    With an unfiltered table this reconstructs the analyzed signal exactly
    (tight Parseval frame); a filtered table yields the orthogonal projection
    onto the selected shape-eigenvalue spaces.

    Shape by shape, each block alpha (R x z), from analysis or not, folds
    to beta = alpha U U_S^-1 (R x d), which synthesizes the same signal
    through the standard liftings S alone, and each lifting of S gets its
    weights c_bar V beta (one column per table holding the shape).  With
    k = min(``SUFFIX_LENGTH``, n), the rank b*k! + j is the rank b*k! (its
    block's leader) with its last k entries permuted by the j-th permutation
    of k items, so its vertex is ``suffix_action(shape, k)[leader's vertex,
    j]``.  Each lifting of S maps the n!/k! leaders only, in blocks of
    SYNTHESIS_BLOCK // k!.  Per lifting and block, the lifting's weights are
    laid out as an (m, k!, tables) table through the action, its rows at the
    leaders' vertices are gathered through the lifting's map, and they are
    added to those leaders' rows of an (n!/k!, k!, tables) accumulator.
    Every ranking sums shapes in table order and liftings in canonical
    order, so the result depends on neither k nor the block size.
    """
    tables = [table] if flipped is None else [table, flipped]
    if any(tab.n != cache.n for tab in tables):
        raise ValidationError("table and cache built for different n")
    jobs: dict[IntegerPartition, list[tuple[int, np.ndarray, ShapeBlock]]] = {}
    for j, tab in enumerate(tables):
        for block in tab.blocks:
            vectors = _check_synthesis_block(cache, block)
            held = jobs.setdefault(block.shape, [])
            if held and held[-1][0] == j:
                raise ValidationError(f"table holds shape {block.shape.parts} twice")
            held.append((j, vectors, block))
    k = min(SUFFIX_LENGTH, cache.n)
    leaders = factorial(cache.n) // factorial(k)
    per_block = max(1, SYNTHESIS_BLOCK // factorial(k))
    acc = np.zeros((leaders, factorial(k), len(tables)))
    for shape, shape_jobs in jobs.items():
        bundle = cache.bundle(shape)
        lifts = bundle.liftings
        u = bundle.spectrum.vectors[lifts.vertices]
        weights = np.empty((bundle.d, bundle.m, len(shape_jobs)))
        for i, (_j, vectors, block) in enumerate(shape_jobs):
            beta = (block.alphas @ u) @ lifts.inverse
            weights[:, :, i] = (block.c_bar * (vectors @ beta)).T
        del u
        table = vertex_table(shape)
        action = suffix_action(shape, k, table)
        # the tables holding the shape are both or one: a slice of acc's last axis
        columns = slice(shape_jobs[0][0], shape_jobs[-1][0] + 1)
        # per lifting, its weights at each vertex's k! suffix vertices, and
        # those of a block's leaders gathered through the lifting's map
        suffix = np.empty((bundle.m, factorial(k), len(shape_jobs)))
        gathered = np.empty((min(per_block, leaders), factorial(k), len(shape_jobs)))
        for start in range(0, leaders, per_block):
            rows = acc[start : start + per_block, :, columns]
            ranks = np.arange(start, start + len(rows)) * factorial(k)
            block = gathered[: len(rows)]
            maps = cache.iter_lifting_maps(shape, ranks, lifts.standard, table=table)
            for w, (_t, col) in zip(weights, maps):
                # the indices are in range; "clip" lets take write into out=
                # directly, where "raise" would buffer
                w.take(action, axis=0, out=suffix, mode="clip")
                suffix.take(col, axis=0, out=block, mode="clip")
                np.add(rows, block, out=rows)
        del table  # one shape's key table at a time
    if flipped is not None:
        # rank b*k! + j's sign is its leader's times tau_j's, as analysis derives parity
        acc[:, :, 1] *= rank_signs(cache.n, np.arange(leaders) * factorial(k))[:, None]
        acc[:, :, 1] *= rank_signs(k, np.arange(factorial(k)))
        acc[:, :, 0] += acc[:, :, 1]
    return Signal(cache.n, np.ascontiguousarray(acc[:, :, 0].reshape(-1)))


def reconstruct(cache: FrameCache, signal: Signal) -> Signal:
    """Round-trip the signal through the transform.

    When the cache holds only the transpose-reduced shape list, the missing
    isotypic components are recovered by analyzing the sign-flipped signal on
    the cached shapes and sign-flipping the synthesis back.
    """
    return synthesize(cache, *analyze_with_conjugates(cache, signal))


# ---------------------------------------------------------------------------
# atoms (materialized; tests and small-n inspection only)


def atom(cache: FrameCache, atom_id: AtomId) -> np.ndarray:
    """Materialize one frame atom as a dense length-n! vector."""
    if cache.n > MAX_MATERIALIZE_N:
        raise ResourceLimitError(f"atom materialization refused for n={cache.n}")
    bundle = cache.bundle(atom_id.shape)
    col = None
    for idx, (lam, key, k) in enumerate(bundle.spectrum.eigenvector_rows()):
        if key == atom_id.eigen_key and k == atom_id.k:
            col = idx
            break
    if col is None:
        raise ValidationError(
            f"no eigenvector with key {atom_id.eigen_key}, k={atom_id.k} "
            f"in shape {atom_id.shape.parts}"
        )
    if atom_id.lifting not in reduced_representatives(bundle.shape):
        raise ValidationError(
            f"{atom_id.lifting.label()} is not a reduced lifting of "
            f"{atom_id.shape.parts}"
        )
    v = bundle.spectrum.vectors[:, col]
    return bundle.c_bar * v[characteristic_column_map(atom_id.shape, atom_id.lifting)]


# ---------------------------------------------------------------------------
# energy views


@dataclass
class EnergyTable:
    """Energies grouped by (shape, eigenvalue), plus per-shape totals."""

    n: int
    rows: list[tuple[IntegerPartition, int, float]]  # (shape, eigen key, energy)
    shape_totals: dict[IntegerPartition, float]
    total: float


def energy_table(table: CoefficientTable) -> EnergyTable:
    rows = table.energy_rows()
    totals = table.shape_energies()
    return EnergyTable(table.n, rows, totals, table.total_energy())


def isotypic_project(cache: FrameCache, signal: Signal, shape) -> Signal:
    """Orthogonal projection onto one cached symmetry type."""
    return synthesize(cache, analyze(cache, signal, shapes=[IntegerPartition.of(shape)]))


def graph_fourier(cache: FrameCache, signal: Signal) -> list[tuple[int, float]]:
    """Rows (eigenvalue key, norm of the signal's component in that Laplacian
    eigenspace), ascending in eigenvalue.

    Requires every shape to be either cached or the transpose of a cached
    shape; transposed shapes are completed through the sign trick.
    """
    _check_signal(cache, signal)
    have = set(cache.shapes)
    for shape in partitions_of(cache.n):
        if shape not in have and shape.transpose() not in have:
            raise ValidationError(
                f"cache cannot cover shape {shape.parts}; build the full "
                f"transpose-reduced list to take the graph Fourier transform"
            )
    energies: dict[int, float] = {}
    direct, flipped = analyze_with_conjugates(cache, signal)
    for _shape, key, e in direct.energy_rows() + conjugate_energy_rows(flipped):
        energies[key] = energies.get(key, 0.0) + e
    return [(key, float(np.sqrt(e))) for key, e in sorted(energies.items())]


# ---------------------------------------------------------------------------
# projections onto one graph


def schreier_projection(
    cache: FrameCache, signal: Signal, shape, lifting: OrderedSetPartition
) -> np.ndarray:
    """The signal accumulated onto one Schreier graph through an arbitrary
    lifting (not restricted to the reduced representatives); entry per vertex
    in canonical order.  Only the signal's support is mapped: ``bincount``
    sums each vertex's entries in rank order from +0.0, to which the skipped
    zeros would add nothing."""
    part = IntegerPartition.of(shape)
    _check_signal(cache, signal)
    m = cache.bundle(part).m
    ranks, weights = signal.support()
    cmap = characteristic_column_map(part, lifting, ranks)
    return np.bincount(cmap, weights=weights, minlength=m)

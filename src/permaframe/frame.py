"""The tight Parseval frame transform: analysis coefficients, synthesis,
energy decompositions, isotypic projections, graph Fourier transform, the
transpose-shape sign trick, and the projected-indicator baseline.

Analysis never materializes length-n! atoms.  Each coefficient is computed on
the Schreier graph side: accumulate the signal onto the graph through the
lifting's column map, and take inner products with the stored eigenvectors,
scaled by the frame constant.  Synthesis spreads each lifting's combined
eigenvector back through the same map.  One depth-first walk of the swap tree
per shape yields those maps; shapes whose transpose is not cached are
completed by carrying the sign-flipped signal through the same walk
(:func:`analyze_with_conjugates`).  Atom materialization exists only for tests
and small-n inspection.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .cache import FrameCache
from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    check_dense_n,
    enumerate_ordered_set_partitions,
    lex_rank,
    partitions_of,
    sign_vector,
    standard_ordered_set_partitions,
)
from .errors import ResourceLimitError, ValidationError
from .schreier import characteristic_column_map, project
from .spectral import key_to_value, reflected_key

MAX_MATERIALIZE_N = 8
MAX_MALLOWS_N = 6


# ---------------------------------------------------------------------------
# signals


@dataclass
class Signal:
    """A dense real vector over all n! rankings, indexed by lexicographic rank."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (factorial(self.n),):
            raise ValidationError(
                f"signal for n={self.n} must have length {factorial(self.n)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("signal has non-finite entries")

    def norm2(self) -> float:
        """Squared Euclidean norm (the signal's energy)."""
        return float(self.values @ self.values)

    def total(self) -> float:
        return float(self.values.sum())

    def copy(self) -> "Signal":
        return Signal(self.n, self.values.copy())

    @classmethod
    def zeros(cls, n: int) -> "Signal":
        check_dense_n(n)
        return cls(n, np.zeros(factorial(n)))

    @classmethod
    def constant(cls, n: int, value: float = 1.0) -> "Signal":
        check_dense_n(n)
        return cls(n, np.full(factorial(n), float(value)))

    @classmethod
    def delta(cls, ranking: Permutation) -> "Signal":
        out = cls.zeros(ranking.n)
        out.values[lex_rank(ranking)] = 1.0
        return out

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
    lifting in canonical order."""

    shape: IntegerPartition
    c_bar: float
    lambdas: np.ndarray  # (R,)
    keys: np.ndarray  # (R,) int64
    ks: np.ndarray  # (R,) int64
    alphas: np.ndarray  # (R, z)

    @property
    def num_rows(self) -> int:
        return self.alphas.shape[0]

    @property
    def z(self) -> int:
        return self.alphas.shape[1]

    def energy(self) -> float:
        return float((self.alphas**2).sum())

    def energy_by_key(self) -> dict[int, float]:
        out: dict[int, float] = {}
        row_energy = (self.alphas**2).sum(axis=1)
        for key, e in zip(self.keys, row_energy):
            out[int(key)] = out.get(int(key), 0.0) + float(e)
        return out


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
        return sum(b.alphas.size for b in self.blocks)

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
        from .combinatorics import reduced_representatives

        for b in self.blocks:
            reps = reduced_representatives(b.shape)
            for r in range(b.num_rows):
                for t, rep in enumerate(reps):
                    yield (
                        AtomId(b.shape, int(b.keys[r]), int(b.ks[r]), rep),
                        float(b.alphas[r, t]),
                    )

    def filter(
        self,
        shapes: Sequence[IntegerPartition] | None = None,
        max_eigs: int | None = None,
    ) -> "CoefficientTable":
        keep = set(shapes) if shapes is not None else None
        blocks = []
        for b in self.blocks:
            if keep is not None and b.shape not in keep:
                continue
            rows = b.num_rows if max_eigs is None else min(b.num_rows, max_eigs)
            blocks.append(
                ShapeBlock(
                    b.shape,
                    b.c_bar,
                    b.lambdas[:rows],
                    b.keys[:rows],
                    b.ks[:rows],
                    b.alphas[:rows],
                )
            )
        provenance = dict(self.provenance)
        provenance["filtered"] = True
        return CoefficientTable(self.n, blocks, provenance)

    # -- serialization ----------------------------------------------------

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "lambda", "k", "partition", "alpha"])
        for atom, alpha in self.iter_rows():
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

    def to_json_obj(self) -> dict:
        rows = [
            {
                "shape": atom.shape.label(),
                "lambda": round(atom.eigenvalue, 6),
                "k": atom.k,
                "partition": atom.lifting.label(),
                "alpha": alpha,
            }
            for atom, alpha in self.iter_rows()
        ]
        return {"n": self.n, "provenance": self.provenance, "rows": rows}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1)


# ---------------------------------------------------------------------------
# analysis and synthesis


def _resolve_shapes(
    cache: FrameCache, shapes: Sequence[IntegerPartition | Sequence[int]] | None
) -> list[IntegerPartition]:
    if shapes is None:
        return list(cache.shapes)
    out = []
    for s in shapes:
        part = s if isinstance(s, IntegerPartition) else IntegerPartition(tuple(s))
        cache.bundle(part)  # raises when absent
        out.append(part)
    return sorted(set(out), key=lambda s: s.parts, reverse=True)


def _check_signal(cache: FrameCache, signal: Signal) -> None:
    if signal.n != cache.n:
        raise ValidationError(
            f"signal is for n={signal.n} but the cache is for n={cache.n}"
        )


def _analyze_blocks(
    cache: FrameCache,
    signal: Signal,
    shape_list: list[IntegerPartition],
    max_eigs: int | None,
    flipped_shapes: Sequence[IntegerPartition] = (),
) -> tuple[list[ShapeBlock], list[ShapeBlock]]:
    """Blocks of ``signal`` on ``shape_list`` and of ``sign_flip(signal)`` on
    ``flipped_shapes`` (a subset), from one tree walk per shape.  Each signal
    gets its own accumulation and product per lifting, so its coefficients do
    not depend on whether the other is computed alongside."""
    values = signal.values
    flipped_values = sign_flip(signal).values if flipped_shapes else None
    direct: list[ShapeBlock] = []
    flipped: list[ShapeBlock] = []
    for shape in shape_list:
        bundle = cache.bundle(shape)
        rows = bundle.spectrum.eigenvector_rows()
        r_used = len(rows) if max_eigs is None else min(len(rows), max_eigs)
        vectors = bundle.spectrum.vectors[:, :r_used]
        jobs = [(values, np.empty((r_used, bundle.z)), direct)]
        if shape in flipped_shapes:
            jobs.append((flipped_values, np.empty((r_used, bundle.z)), flipped))
        for t, col in cache.iter_lifting_maps(shape):
            for f, alphas, _out in jobs:
                g = np.bincount(col, weights=f, minlength=bundle.m)
                alphas[:, t] = vectors.T @ g
        lam = np.array([row[0] for row in rows[:r_used]])
        keys = np.array([row[1] for row in rows[:r_used]], dtype=np.int64)
        ks = np.array([row[2] for row in rows[:r_used]], dtype=np.int64)
        for _f, alphas, out in jobs:
            alphas *= bundle.c_bar
            out.append(ShapeBlock(shape, bundle.c_bar, lam, keys, ks, alphas))
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

    Per shape and reduced lifting, the signal is projected onto the Schreier
    graph once through the lifting's column map and dotted with every
    requested eigenvector.  ``max_eigs`` keeps only the first
    min(max_eigs, d) eigenvectors per shape (eigenvalues ascending).
    """
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
    :func:`conjugate_energy_rows`).  Both tables come from one walk per shape
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


def synthesize(
    cache: FrameCache,
    table: CoefficientTable,
    flipped: CoefficientTable | None = None,
) -> Signal:
    """Linear combination of the atoms weighted by the table, plus the sign
    flip of the combination weighted by ``flipped`` when given.

    With an unfiltered table this reconstructs the analyzed signal exactly
    (tight Parseval frame); a filtered table yields the orthogonal projection
    onto the selected shape-eigenvalue spaces.  One walk per shape serves
    both tables; per lifting, all eigenvectors are combined before one lift.
    """
    tables = [table] if flipped is None else [table, flipped]
    if any(tab.n != cache.n for tab in tables):
        raise ValidationError("table and cache built for different n")
    accs = [np.zeros(factorial(cache.n)) for _ in tables]
    jobs: dict[IntegerPartition, list] = {}
    for acc, tab in zip(accs, tables):
        for block in tab.blocks:
            spectrum = cache.bundle(block.shape).spectrum
            stored_keys = [row[1] for row in spectrum.eigenvector_rows()]
            if list(block.keys) != stored_keys[: block.num_rows]:
                raise ValidationError(
                    f"table rows for {block.shape.parts} do not match the cache spectrum"
                )
            vectors = spectrum.vectors[:, : block.num_rows]
            jobs.setdefault(block.shape, []).append((acc, vectors, block))
    for shape, shape_jobs in jobs.items():
        for t, col in cache.iter_lifting_maps(shape):
            for acc, vectors, block in shape_jobs:
                w = block.c_bar * (vectors @ block.alphas[:, t])
                acc += w[col]
    if flipped is not None:
        accs[0] += sign_flip(Signal(cache.n, accs[1])).values
    return Signal(cache.n, accs[0])


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
    if atom_id.lifting not in bundle.reduced():
        raise ValidationError(
            f"{atom_id.lifting.label()} is not a reduced lifting of "
            f"{atom_id.shape.parts}"
        )
    v = bundle.spectrum.vectors[:, col]
    return bundle.c_bar * v[characteristic_column_map(atom_id.shape, atom_id.lifting)]


def all_atom_ids(cache: FrameCache, shape: IntegerPartition) -> list[AtomId]:
    bundle = cache.bundle(shape)
    return [
        AtomId(shape, key, k, rep)
        for (_lam, key, k) in bundle.spectrum.eigenvector_rows()
        for rep in bundle.reduced()
    ]


# ---------------------------------------------------------------------------
# energy views


@dataclass
class EnergyTable:
    """Energies grouped by (shape, eigenvalue), plus per-shape totals."""

    n: int
    rows: list[tuple[IntegerPartition, int, float]]  # (shape, eigen key, energy)
    shape_totals: dict[IntegerPartition, float]
    total: float

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "lambda", "energy"])
        for shape, key, energy in self.rows:
            writer.writerow([shape.label(), f"{key_to_value(key):.6f}", repr(energy)])
        return buf.getvalue()


def energy_table(table: CoefficientTable) -> EnergyTable:
    rows = table.energy_rows()
    totals = table.shape_energies()
    return EnergyTable(table.n, rows, totals, table.total_energy())


def isotypic_project(cache: FrameCache, signal: Signal, shape) -> Signal:
    """Orthogonal projection onto one cached symmetry type."""
    part = shape if isinstance(shape, IntegerPartition) else IntegerPartition(tuple(shape))
    return synthesize(cache, analyze(cache, signal, shapes=[part]))


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


def conjugate_shape_energy(
    cache: FrameCache, signal: Signal, shape
) -> list[tuple[int, float]]:
    """Eigenvalue-resolved energies for a shape recovered through its
    transpose: analyze the sign-flipped signal on the transposed shape and
    reflect each eigenvalue across half the spectral range."""
    part = shape if isinstance(shape, IntegerPartition) else IntegerPartition(tuple(shape))
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


# ---------------------------------------------------------------------------
# baselines and checks


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
    part = shape if isinstance(shape, IntegerPartition) else IntegerPartition(tuple(shape))
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
    part = shape if isinstance(shape, IntegerPartition) else IntegerPartition(tuple(shape))
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


def schreier_projection(
    cache: FrameCache, signal: Signal, shape, lifting: OrderedSetPartition
) -> np.ndarray:
    """The signal accumulated onto one Schreier graph through an arbitrary
    lifting (not restricted to the reduced representatives); entry per vertex
    in canonical order."""
    part = shape if isinstance(shape, IntegerPartition) else IntegerPartition(tuple(shape))
    _check_signal(cache, signal)
    bundle = cache.bundle(part)
    cmap = characteristic_column_map(part, lifting)
    return project(cmap, signal.values, bundle.m)

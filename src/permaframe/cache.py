"""Per-shape setup bundles, the in-memory frame cache, and its on-disk form.

Setup is data-independent and split into two phases: the Schreier graphs,
and one eigensolve per shape on the span of its standard polytabloids
(``spectral.specht_spectrum``), which needs no other shape.  The analysis and
synthesis operators get each reduced lifting's column map, over a given set
of ranks, from ``FrameCache.iter_lifting_maps``, liftings in canonical order.
A ranking's base-R vertex key (R rows in the shape) is the lifting's row word
dotted with R**(n-1-p) at its candidates' positions p, so the keys of a batch
of liftings are one product of their row words with the ranks'
``schreier.position_powers`` table; the vertices are read from the shape's
key -> vertex table, which a caller that maps one shape several times builds
once.  Both operators map block leaders: one rank per block of k!
consecutive ranks, whose other ranks follow from it through
``schreier.suffix_action``.  Synthesis maps every leader at k =
``frame.SUFFIX_LENGTH``, a fixed number of them at a time; analysis maps the
leaders of the blocks a signal's nonzeros touch, at a k chosen from its
support (k = 1 maps the nonzeros themselves), once per shape it does not
read off a finer shape's maps.

The on-disk layout is one directory per n holding a JSON manifest and one
uncompressed numpy archive, ``arrays.npz``, with two members per shape: the
eigenvectors, the one output of setup that cannot be rebuilt cheaply, and the
vertex row words, which guard against a change of the builder's vertex order.
The archive stores a CRC-32 per member, so bytes changed on disk fail to read.
The manifest holds only what a reader reads: the format, version and n, and
per shape its parts, the eigenvalues with their keys and multiplicities, and
m, z and d, which the loader checks against the shape and the benchmark
reads.  The loader reads only these members and fields and ignores any
others, so caches that hold more still load.  ``save_cache``
writes a hidden sibling directory and renames it into place.

``load_cache`` is the one validator: it checks the stored row words against
graphs built as setup builds them and the stored eigenvectors against those
graphs' Laplacians, applied through their neighbor tables as setup's
eigensolve applies them; ``verify_cache`` reports what it rejects, and
``setup`` rebuilds such a cache.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from math import factorial
from typing import Callable, Iterator, Sequence

import numpy as np

from .combinatorics import (
    IntegerPartition,
    check_dense_n,
    h_shapes,
    hook_dimension,
    multiplicity_constants,
    partitions_of,
    reduced_row_words,
    unrank_words,
)
from .errors import CacheFormatError, NumericalError, ValidationError
from .schreier import SchreierGraph, build_schreier, position_powers, vertex_table
from .spectral import (
    ShapeSpectrum, check_key_separation, check_residuals, eigenvalue_key, specht_spectrum,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "permaframe-setup-cache"
MANIFEST_VERSION = 2

FULL_H_MAX_N = 10  # larger n requires an explicit top-k shape count

# Liftings whose keys iter_lifting_maps computes in one product.  Measured on a
# 2-vCPU Xeon VM (medians of 5 and 11 runs), mapping the 151,200 block leaders
# of a dense n = 10 tally through its top 8 shapes' 911 liftings took 2.47,
# 1.71, 1.46, 1.43 and 1.34 s at 1, 4, 8, 16 and 64 liftings per product, and
# n = 8's 1,680 leaders through the full list 0.029, 0.018, 0.017, 0.015 and
# 0.013 s.  Past 16 the time hardly moves, while the (batch, ranks) float64
# keys held during a batch keep growing.
LIFTING_BATCH = 16


@dataclass
class SchreierBundle:
    """One shape's graph and spectrum."""

    shape: IntegerPartition
    graph: SchreierGraph
    spectrum: ShapeSpectrum

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def z(self) -> int:
        return multiplicity_constants(self.shape).z

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def c_bar(self) -> float:
        return multiplicity_constants(self.shape).c_bar


class FrameCache:
    """A set of shape bundles for one n plus the product that yields every
    reduced lifting's column map."""

    def __init__(self, n: int, bundles: dict[IntegerPartition, SchreierBundle]) -> None:
        self.n = n
        self.bundles = bundles
        self.shapes: tuple[IntegerPartition, ...] = tuple(
            sorted(bundles, key=lambda s: s.parts, reverse=True)
        )

    # -- lookups ---------------------------------------------------------

    def bundle(self, shape: IntegerPartition | Sequence[int]) -> SchreierBundle:
        shape = IntegerPartition.of(shape)
        try:
            return self.bundles[shape]
        except KeyError:
            raise ValidationError(
                f"shape {shape.parts} is not in the cache (have "
                f"{[s.parts for s in self.shapes]})"
            ) from None

    def atom_count(self, shapes: Sequence[IntegerPartition] | None = None) -> int:
        return sum(
            self.bundles[s].d * self.bundles[s].z for s in (shapes or self.shapes)
        )

    # -- lifting column maps -----------------------------------------------

    def iter_lifting_maps(
        self, shape: IntegerPartition, ranks: np.ndarray, *, table: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(t, vertex per rank of ``ranks`` under the t-th reduced lifting)
        pairs for t = 0..z-1 in canonical order: each map is the column map
        of row t of ``reduced_row_words(shape)`` at ``ranks``, as a fresh
        intp array.  The keys of ``LIFTING_BATCH`` liftings are one product
        of their row words with the ranks' ``position_powers``.  ``table`` is
        the shape's ``vertex_table``, built here when not given: a caller
        that maps one shape over several sets of ranks builds it once."""
        bundle = self.bundle(shape)
        rows = reduced_row_words(bundle.shape).astype(np.float64)
        powers = position_powers(bundle.shape, unrank_words(self.n, ranks))
        if table is None:
            table = vertex_table(bundle.shape)
        # one batch's keys at a time: each product overwrites the last
        keys = np.empty((min(LIFTING_BATCH, len(rows)), len(ranks)))
        for start in range(0, len(rows), LIFTING_BATCH):
            batch = rows[start : start + LIFTING_BATCH]
            np.matmul(batch, powers, out=keys[: len(batch)])
            for t, key in enumerate(keys[: len(batch)], start):
                yield t, table.take(key.astype(np.intp))

    def perm_vectors(self, shape: IntegerPartition) -> list[tuple[int, np.ndarray]]:
        """Every (lifting index, column map over all n! ranks) pair of one
        shape, as a list; the transform streams ``iter_lifting_maps``, the
        benchmark's tracer binds this name."""
        return list(self.iter_lifting_maps(shape, np.arange(factorial(self.n))))


# ---------------------------------------------------------------------------
# building


def resolve_shape_list(
    n: int,
    shapes: str | Sequence[IntegerPartition | Sequence[int]] = "h",
    top_k: int | None = None,
) -> list[IntegerPartition]:
    if isinstance(shapes, str):
        if shapes == "h":
            return list(h_shapes(n, top_k))
        if shapes == "all":
            return list(partitions_of(n))
        raise ValidationError(f"unknown shape selector {shapes!r}")
    resolved = []
    for s in shapes:
        part = IntegerPartition.of(s)
        if part.n != n:
            raise ValidationError(f"shape {part.parts} does not partition {n}")
        resolved.append(part)
    return sorted(set(resolved), key=lambda s: s.parts, reverse=True)


def build_cache(
    n: int,
    shapes: str | Sequence[IntegerPartition | Sequence[int]] = "h",
    *,
    top_k: int | None = None,
    log: Callable[[str], None] | None = None,
) -> FrameCache:
    """Run the full data-independent setup for one n.

    ``shapes`` is "h" (transpose-reduced list, optionally truncated to
    ``top_k``), "all", or an explicit list, built as given.  Each shape is
    solved on its own Specht module, independently of the others.
    """
    check_dense_n(n)
    shape_list = resolve_shape_list(n, shapes, top_k)

    def emit(msg: str) -> None:
        if log:
            log(msg)

    t0 = time.perf_counter()
    graphs = {shape: build_schreier(shape) for shape in shape_list}
    emit(f"phase 1 (graphs): {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    spectra = {shape: specht_spectrum(shape, graphs[shape].apply_laplacian) for shape in shape_list}
    check_key_separation(n, spectra.values())
    emit(f"phase 2 (eigensolves): {time.perf_counter() - t0:.2f}s")

    bundles = {
        shape: SchreierBundle(shape, graphs[shape], spectra[shape])
        for shape in shape_list
    }
    cache = FrameCache(n, bundles)
    emit(f"{cache.atom_count()} atoms over {len(shape_list)} shapes")
    return cache


# ---------------------------------------------------------------------------
# on-disk cache


def _member(shape: IntegerPartition, key: str) -> str:
    """The archive member holding one shape's ``key`` array."""
    return "s" + "-".join(str(p) for p in shape.parts) + "." + key


def cache_dir(root: str | Path, n: int) -> Path:
    return Path(root) / f"n={n}"


def save_cache(cache: FrameCache, root: str | Path) -> Path:
    """Write the cache for ``cache.n`` under ``root``, replacing any cache
    there.  The files go to a hidden sibling directory first, which is then
    renamed into place, so an interrupted write leaves either the old cache
    whole or no cache, never a manifest beside another build's arrays."""
    base = cache_dir(root, cache.n)
    base.parent.mkdir(parents=True, exist_ok=True)
    fresh = base.with_name(f".{base.name}.{os.getpid()}.new")
    stale = base.with_name(f".{base.name}.{os.getpid()}.old")
    # an earlier write killed before it finished leaves its hidden siblings
    for suffix in ("new", "old"):
        for leftover in base.parent.glob(f".{base.name}.*.{suffix}"):
            shutil.rmtree(leftover, ignore_errors=True)
    try:
        _write_cache(cache, fresh)
        if base.exists():
            os.replace(base, stale)
        os.replace(fresh, base)
    except BaseException:
        shutil.rmtree(fresh, ignore_errors=True)
        if stale.exists() and not base.exists():
            os.replace(stale, base)
        raise
    shutil.rmtree(stale, ignore_errors=True)
    return base


def _write_cache(cache: FrameCache, base: Path) -> None:
    base.mkdir()
    arrays = {}
    shape_entries = []
    for shape in cache.shapes:
        bundle = cache.bundles[shape]
        eig = bundle.spectrum
        arrays[_member(shape, "eigvecs")] = np.asarray(eig.vectors, dtype=np.float64)
        arrays[_member(shape, "row_words")] = bundle.graph.row_words
        shape_entries.append(
            {
                "parts": list(shape.parts),
                "m": bundle.m,
                "z": bundle.z,
                "d": bundle.d,
                "eigenvalues": [float(v) for v in eig.eigenvalues],
                "eigen_keys": list(eig.keys),
                "kappas": list(eig.kappas),
            }
        )
    with open(base / "arrays.npz", "wb") as fh:
        np.savez(fh, **arrays)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "n": cache.n,
        "shapes": shape_entries,
    }
    with open(base / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=1)


def _load_bundle(arrays: np.lib.npyio.NpzFile, base: Path, n: int, entry: dict) -> SchreierBundle:
    shape = IntegerPartition(tuple(entry["parts"]))
    where = f"{base}: shape {shape.label()}"
    m, z, d = entry["m"], entry["z"], entry["d"]
    consts = multiplicity_constants(shape)
    if shape.n != n or (m, z) != (consts.m, consts.z) or d != hook_dimension(shape):
        raise CacheFormatError(f"{where}: manifest constants disagree with the shape")

    def member(key: str, dims: tuple[int, int]) -> np.ndarray:
        arr = arrays[_member(shape, key)]
        if arr.shape != dims:
            raise CacheFormatError(f"{where}: {key} has shape {arr.shape}, not {dims}")
        return arr

    graph = build_schreier(shape)
    if not np.array_equal(member("row_words", (m, n)), graph.row_words):
        raise CacheFormatError(f"{where}: stored vertex order differs")
    spectrum = ShapeSpectrum(
        shape,
        tuple(entry["eigenvalues"]),
        tuple(entry["eigen_keys"]),
        tuple(entry["kappas"]),
        member("eigvecs", (m, d)),
    )
    lengths = {len(spectrum.eigenvalues), len(spectrum.keys), len(spectrum.kappas)}
    if sum(spectrum.kappas) != d or len(lengths) != 1:
        raise CacheFormatError(f"{where}: eigenvalue lists disagree with d={d}")
    if [eigenvalue_key(lam) for lam in spectrum.eigenvalues] != list(spectrum.keys):
        raise CacheFormatError(f"{where}: eigenvalue keys disagree with the eigenvalues")
    try:
        check_residuals(spectrum, graph.apply_laplacian)
    except NumericalError as exc:
        raise CacheFormatError(f"{where}: {exc}") from exc
    return SchreierBundle(shape, graph, spectrum)


def load_cache(root: str | Path, n: int) -> FrameCache:
    """Read one n's cache and check it against freshly built graphs; the only
    cache validator.  Every malformed cache raises ``CacheFormatError``; a
    damaged archive fails its CRC-32 or zip structure checks on read."""
    base = cache_dir(root, n)
    path = base / MANIFEST_NAME
    if not path.exists():
        raise CacheFormatError(f"no cache manifest at {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CacheFormatError(f"{path}: not a setup cache manifest")
        if manifest.get("version") != MANIFEST_VERSION:
            raise CacheFormatError(
                f"{path}: cache format version {manifest.get('version')} is not "
                f"{MANIFEST_VERSION}; run `permaframe setup --n {n}` to rebuild it"
            )
        if manifest.get("n") != n:
            raise CacheFormatError(f"{path}: manifest is for n={manifest.get('n')}")
        archive = base / "arrays.npz"
        # np.load reads bytes that are no zip archive as a pickle, refused
        # with advice to load it unsafely; a missing archive is left to
        # np.load, whose error names the path
        if archive.exists() and not zipfile.is_zipfile(archive):
            raise zipfile.BadZipFile(f"{archive.name} is not a zip archive")
        with np.load(archive) as arrays:
            bundles = [_load_bundle(arrays, base, n, e) for e in manifest["shapes"]]
        return FrameCache(n, {bundle.shape: bundle for bundle in bundles})
    except (
        OSError, KeyError, IndexError, TypeError, ValueError, AttributeError, EOFError,
        zipfile.BadZipFile,
    ) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        raise CacheFormatError(f"{base}: malformed cache ({detail})") from exc


def verify_cache(
    root: str | Path, n: int, shapes: Sequence[IntegerPartition] | None = None
) -> list[str]:
    """The problems ``load_cache`` finds in a cache, or, when ``shapes`` is
    given, a shape list other than it: empty when the cache loads and holds
    exactly those shapes, else one message."""
    try:
        cache = load_cache(root, n)
    except CacheFormatError as exc:
        return [str(exc)]
    if shapes is not None and set(cache.shapes) != set(shapes):
        have, want = ([s.label() for s in group] for group in (cache.shapes, shapes))
        return [f"cache holds shapes {have}, not the requested {want}"]
    return []

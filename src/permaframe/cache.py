"""Per-shape setup bundles, the in-memory frame cache, and its on-disk form.

Setup is data-independent and split into three phases: graph plus lifting-map
construction, eigensolves in a dominance-compatible order, and the swap tree
over the reduced liftings.  The analysis and synthesis operators get each
reduced lifting's column map from one depth-first walk of that tree
(``FrameCache.iter_lifting_maps``): it starts at the reading-order column map,
reindexes the current map by the adjacent-swap map of each tree edge on the
way down, and undoes the step the same way on backtrack (each swap map is an
involution).

The on-disk layout is one directory per n containing a JSON manifest plus one
subdirectory per shape with flat little-endian 64-bit array files (magic
header ``PFARRAY1``) for the eigenvectors, the vertex row words, the
reading-order column map, and the swap tree.  The loader reads only the files
it needs, so manifests listing further files still load.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    check_dense_n,
    h_shapes,
    hook_dimension,
    multiplicity_constants,
    partitions_of,
    dominates,
    reduced_representatives,
)
from .errors import CacheFormatError, ValidationError
from .schreier import (
    SchreierGraph,
    adjacent_swap_maps,
    bfs_tree_arrays,
    build_characteristic,
    build_schreier,
)
from .spectral import ShapeSpectrum, deflate_and_solve, hook_fastpath_spectrum

ARRAY_MAGIC = b"PFARRAY1"
ARRAY_VERSION = 1
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "permaframe-setup-cache"
MANIFEST_VERSION = 1

FULL_H_MAX_N = 10  # larger n requires an explicit top-k shape count


def _is_hook(shape: IntegerPartition) -> bool:
    return all(p == 1 for p in shape.parts[1:])


@dataclass
class SchreierBundle:
    """Everything precomputed for one shape."""

    shape: IntegerPartition
    graph: SchreierGraph
    col_of: np.ndarray  # (n!,) int64, reading-order lifting, read-only
    bfs_parent: np.ndarray  # (z,) tree parent among reduced liftings, -1 at root
    bfs_swap: np.ndarray  # (z,) adjacent transposition on the tree edge
    spectrum: ShapeSpectrum

    def __post_init__(self) -> None:
        # the swap-tree walk yields this array itself for the root lifting
        self.col_of.setflags(write=False)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def z(self) -> int:
        return len(self.bfs_parent)

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def c_bar(self) -> float:
        return multiplicity_constants(self.shape).c_bar

    def reduced(self) -> tuple[OrderedSetPartition, ...]:
        return reduced_representatives(self.shape)


def _tree_children(parent: np.ndarray) -> list[list[int]]:
    """Child lists of the swap tree, in lifting order; the root is 0."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for t in range(1, len(parent)):
        children[int(parent[t])].append(t)
    return children


@dataclass
class BuildReport:
    phase_seconds: dict[str, float] = field(default_factory=dict)
    atom_count: int = 0


class FrameCache:
    """A set of shape bundles for one n plus the swap-tree walk that yields
    every reduced lifting's column map."""

    def __init__(
        self,
        n: int,
        bundles: dict[IntegerPartition, SchreierBundle],
        *,
        shape_source: str = "custom",
        top_k: int | None = None,
        hook_fastpath: bool = False,
        report: BuildReport | None = None,
    ) -> None:
        self.n = n
        self.bundles = bundles
        self.shapes: tuple[IntegerPartition, ...] = tuple(
            sorted(bundles, key=lambda s: s.parts, reverse=True)
        )
        self.shape_source = shape_source
        self.top_k = top_k
        self.hook_fastpath = hook_fastpath
        self.report = report or BuildReport()

    # -- lookups ---------------------------------------------------------

    def bundle(self, shape: IntegerPartition | Sequence[int]) -> SchreierBundle:
        if not isinstance(shape, IntegerPartition):
            shape = IntegerPartition(tuple(shape))
        try:
            return self.bundles[shape]
        except KeyError:
            raise ValidationError(
                f"shape {shape.parts} is not in the cache (have "
                f"{[s.parts for s in self.shapes]})"
            ) from None

    @property
    def full_h(self) -> bool:
        have = set(self.shapes)
        return all(s in have for s in h_shapes(self.n))

    def atom_count(self, shapes: Sequence[IntegerPartition] | None = None) -> int:
        return sum(
            self.bundles[s].d * self.bundles[s].z for s in (shapes or self.shapes)
        )

    # -- lifting column maps -----------------------------------------------

    def iter_lifting_maps(
        self, shape: IntegerPartition
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(t, column map of the t-th reduced lifting) pairs in depth-first
        order over the swap tree; every lifting appears exactly once, and each
        map equals ``characteristic_column_map(shape, reduced_representatives
        (shape)[t])``.  Each tree edge costs one O(n!) gather down and one to
        undo it on backtrack.  The root's map is the bundle's read-only
        ``col_of``; every other yielded map is a fresh array."""
        bundle = self.bundle(shape)
        maps = adjacent_swap_maps(self.n)
        children = _tree_children(bundle.bfs_parent)
        col = bundle.col_of
        yield 0, col
        stack: list[tuple[int, Iterator[int]]] = [(0, iter(children[0]))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                if stack:
                    col = col[maps[int(bundle.bfs_swap[node]) - 1]]
                continue
            col = col[maps[int(bundle.bfs_swap[child]) - 1]]
            yield child, col
            stack.append((child, iter(children[child])))

    def perm_vectors(self, shape: IntegerPartition) -> list[tuple[int, np.ndarray]]:
        """Every (lifting index, column map) pair of one shape, as a list.
        Kept because the benchmark's tracer (``perfbench/trace_cli.py``) binds
        it; the transform itself streams ``iter_lifting_maps``."""
        return list(self.iter_lifting_maps(shape))


# ---------------------------------------------------------------------------
# building


def resolve_shape_list(
    n: int,
    shapes: str | Sequence[IntegerPartition | Sequence[int]] = "h",
    top_k: int | None = None,
) -> tuple[list[IntegerPartition], str]:
    if isinstance(shapes, str):
        if shapes == "h":
            return list(h_shapes(n, top_k)), "h"
        if shapes == "all":
            return list(partitions_of(n)), "all"
        raise ValidationError(f"unknown shape selector {shapes!r}")
    resolved = []
    for s in shapes:
        part = s if isinstance(s, IntegerPartition) else IntegerPartition(tuple(s))
        if part.n != n:
            raise ValidationError(f"shape {part.parts} does not partition {n}")
        resolved.append(part)
    # the eigensolver needs every strict dominator, so close the list upward
    closed = set(resolved)
    for gamma in list(closed):
        for nu in partitions_of(n):
            if dominates(nu, gamma):
                closed.add(nu)
    return sorted(closed, key=lambda s: s.parts, reverse=True), "custom"


def build_cache(
    n: int,
    shapes: str | Sequence[IntegerPartition | Sequence[int]] = "h",
    *,
    top_k: int | None = None,
    hook_fastpath: bool = False,
    threads: int = 1,
    log: Callable[[str], None] | None = None,
) -> FrameCache:
    """Run the full data-independent setup for one n.

    ``shapes`` is "h" (transpose-reduced list, optionally truncated to
    ``top_k``), "all", or an explicit list (closed upward under dominance
    automatically).  Shapes are processed in descending lexicographic order,
    which refines dominance, so every eigensolve sees its dominators solved.
    """
    check_dense_n(n)
    shape_list, source = resolve_shape_list(n, shapes, top_k)
    report = BuildReport()

    def emit(msg: str) -> None:
        if log:
            log(msg)

    def run_over_shapes(fn, items):
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(fn, items))
        return [fn(item) for item in items]

    t0 = time.perf_counter()
    graphs = dict(zip(shape_list, run_over_shapes(build_schreier, shape_list)))
    col_maps = dict(
        zip(
            shape_list,
            run_over_shapes(lambda s: build_characteristic(s).col_of, shape_list),
        )
    )
    report.phase_seconds["graphs"] = time.perf_counter() - t0
    emit(f"phase 1 (graphs + lifting maps): {report.phase_seconds['graphs']:.2f}s")

    t0 = time.perf_counter()
    spectra: dict[IntegerPartition, ShapeSpectrum] = {}
    for shape in shape_list:  # descending lex = dominators first
        if hook_fastpath and _is_hook(shape):
            spectra[shape] = hook_fastpath_spectrum(shape, graphs[shape].laplacian)
        else:
            doms = {nu: sp for nu, sp in spectra.items() if dominates(nu, shape)}
            spectra[shape] = deflate_and_solve(shape, graphs[shape].laplacian, doms)
    report.phase_seconds["spectra"] = time.perf_counter() - t0
    emit(f"phase 2 (eigensolves): {report.phase_seconds['spectra']:.2f}s")

    t0 = time.perf_counter()

    trees = dict(zip(shape_list, run_over_shapes(bfs_tree_arrays, shape_list)))
    report.phase_seconds["paths"] = time.perf_counter() - t0
    emit(f"phase 3 (swap tree): {report.phase_seconds['paths']:.2f}s")

    bundles = {
        shape: SchreierBundle(
            shape, graphs[shape], col_maps[shape], *trees[shape], spectra[shape]
        )
        for shape in shape_list
    }
    cache = FrameCache(
        n,
        bundles,
        shape_source=source,
        top_k=top_k,
        hook_fastpath=hook_fastpath,
        report=report,
    )
    report.atom_count = cache.atom_count()
    emit(f"{report.atom_count} atoms over {len(shape_list)} shapes")
    return cache


# ---------------------------------------------------------------------------
# binary array files


_DTYPE_CODES = {np.dtype(np.int64): 1, np.dtype(np.float64): 2}
_CODE_DTYPES = {1: np.dtype("<i8"), 2: np.dtype("<f8")}


def write_array(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODES.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise CacheFormatError(f"unsupported array dtype {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(ARRAY_MAGIC)
        fh.write(struct.pack("<IB3xQ", ARRAY_VERSION, code, arr.size))
        fh.write(arr.astype(_CODE_DTYPES[code]).tobytes())


def read_array(path: Path, expected_count: int | None = None) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != ARRAY_MAGIC:
                raise CacheFormatError(f"{path}: bad magic {magic!r}")
            version, code, count = struct.unpack("<IB3xQ", fh.read(16))
            if version != ARRAY_VERSION:
                raise CacheFormatError(f"{path}: unsupported version {version}")
            if code not in _CODE_DTYPES:
                raise CacheFormatError(f"{path}: unknown dtype code {code}")
            data = np.frombuffer(fh.read(), dtype=_CODE_DTYPES[code])
    except OSError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
    if len(data) != count:
        raise CacheFormatError(f"{path}: truncated ({len(data)} of {count} values)")
    if expected_count is not None and count != expected_count:
        raise CacheFormatError(f"{path}: expected {expected_count} values, found {count}")
    return data


# ---------------------------------------------------------------------------
# on-disk cache


def _shape_dirname(shape: IntegerPartition) -> str:
    return "s" + "-".join(str(p) for p in shape.parts)


def cache_dir(root: str | Path, n: int) -> Path:
    return Path(root) / f"n={n}"


def save_cache(cache: FrameCache, root: str | Path) -> Path:
    base = cache_dir(root, cache.n)
    base.mkdir(parents=True, exist_ok=True)
    shape_entries = []
    for shape in cache.shapes:
        bundle = cache.bundles[shape]
        sdir = base / _shape_dirname(shape)
        sdir.mkdir(exist_ok=True)
        consts = multiplicity_constants(shape)
        eig = bundle.spectrum
        files = {
            "eigvecs": ("eigvecs.pfa", np.asarray(eig.vectors, dtype=np.float64).ravel()),
            "col_of": ("col_of.pfa", bundle.col_of.astype(np.int64)),
            "row_words": (
                "row_words.pfa",
                np.asarray(bundle.graph.row_words, dtype=np.int64).ravel(),
            ),
            "bfs_parent": ("bfs_parent.pfa", bundle.bfs_parent),
            "bfs_swap": ("bfs_swap.pfa", bundle.bfs_swap),
        }
        inventory = {}
        for key, (name, arr) in files.items():
            write_array(sdir / name, arr)
            inventory[key] = {"path": name, "count": int(np.asarray(arr).size)}
        shape_entries.append(
            {
                "parts": list(shape.parts),
                "dir": _shape_dirname(shape),
                "m": bundle.m,
                "z": bundle.z,
                "d": bundle.d,
                "m_over_z": consts.m // consts.z,
                "eigenvalues": [float(v) for v in eig.eigenvalues],
                "eigen_keys": list(eig.keys),
                "kappas": list(eig.kappas),
                "vertex_labels": [v.label() for v in bundle.graph.vertices()],
                "files": inventory,
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "n": cache.n,
        "shape_source": cache.shape_source,
        "top_k": cache.top_k,
        "full_h": cache.full_h,
        "hook_fastpath": cache.hook_fastpath,
        "shapes": shape_entries,
    }
    with open(base / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return base


def _load_manifest(root: str | Path, n: int) -> tuple[Path, dict]:
    base = cache_dir(root, n)
    path = base / MANIFEST_NAME
    if not path.exists():
        raise CacheFormatError(f"no cache manifest at {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise CacheFormatError(f"{path}: not a setup cache manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise CacheFormatError(f"{path}: unsupported version {manifest.get('version')}")
    if manifest.get("n") != n:
        raise CacheFormatError(f"{path}: manifest is for n={manifest.get('n')}")
    return base, manifest


def check_swap_tree(
    shape: IntegerPartition, parent: np.ndarray, swap: np.ndarray, where
) -> None:
    """Raise ``CacheFormatError`` unless (parent, swap) is a tree over all
    reduced liftings of the shape, rooted at lifting 0, whose every edge is an
    adjacent swap: exchanging entries swap[t] and swap[t]+1 (1-based) of
    lifting parent[t]'s row word gives lifting t's.  A corrupt tree would make
    the walk yield wrong column maps or skip liftings, leaving their
    coefficients unset."""
    reps = reduced_representatives(shape)
    z = len(reps)
    if len(parent) != z or len(swap) != z or parent[0] != -1:
        raise CacheFormatError(f"{where}: swap tree is not rooted at lifting 0")
    for t in range(1, z):
        p, s = int(parent[t]), int(swap[t])
        if not (0 <= p < z and 1 <= s < shape.n):
            raise CacheFormatError(f"{where}: swap tree entry {t} out of range")
        rw = list(reps[p].row_word)
        rw[s - 1], rw[s] = rw[s], rw[s - 1]
        if tuple(rw) != reps[t].row_word:
            raise CacheFormatError(f"{where}: swap tree edge to lifting {t} is not a swap")
    children = _tree_children(parent)
    reached, stack = 1, [0]
    while stack:
        kids = children[stack.pop()]
        reached += len(kids)
        stack.extend(kids)
    if reached != z:
        raise CacheFormatError(f"{where}: swap tree reaches {reached} of {z} liftings")


def load_cache(root: str | Path, n: int) -> FrameCache:
    base, manifest = _load_manifest(root, n)
    bundles = {}
    from .schreier import build_schreier_direct

    for entry in manifest["shapes"]:
        shape = IntegerPartition(tuple(entry["parts"]))
        sdir = base / entry["dir"]
        m, z, d = entry["m"], entry["z"], entry["d"]
        consts = multiplicity_constants(shape)
        if (m, z) != (consts.m, consts.z) or d != hook_dimension(shape):
            raise CacheFormatError(f"{sdir}: manifest constants disagree with {shape.parts}")
        fileinfo = entry["files"]

        def arr(key: str, count: int) -> np.ndarray:
            info = fileinfo[key]
            if info["count"] != count:
                raise CacheFormatError(f"{sdir}: {key} count mismatch")
            return read_array(sdir / info["path"], count)

        graph = build_schreier_direct(shape)
        row_words = arr("row_words", m * shape.n).reshape(m, shape.n)
        if not np.array_equal(row_words, graph.row_words):
            raise CacheFormatError(f"{sdir}: stored vertex order differs")
        vectors = arr("eigvecs", m * d).reshape(m, d)
        spectrum = ShapeSpectrum(
            shape,
            tuple(entry["eigenvalues"]),
            tuple(entry["eigen_keys"]),
            tuple(entry["kappas"]),
            vectors,
        )
        if sum(spectrum.kappas) != d:
            raise CacheFormatError(f"{sdir}: multiplicities do not sum to {d}")
        parent, swap = arr("bfs_parent", z), arr("bfs_swap", z)
        check_swap_tree(shape, parent, swap, sdir)
        bundles[shape] = SchreierBundle(
            shape, graph, arr("col_of", factorial(n)), parent, swap, spectrum
        )
    return FrameCache(
        n,
        bundles,
        shape_source=manifest.get("shape_source", "custom"),
        top_k=manifest.get("top_k"),
        hook_fastpath=manifest.get("hook_fastpath", False),
    )


def verify_cache(root: str | Path, n: int) -> list[str]:
    """Cheap consistency pass over an existing cache; returns found problems."""
    problems: list[str] = []
    try:
        base, manifest = _load_manifest(root, n)
    except CacheFormatError as exc:
        return [str(exc)]
    for entry in manifest["shapes"]:
        shape = IntegerPartition(tuple(entry["parts"]))
        sdir = base / entry["dir"]
        consts = multiplicity_constants(shape)
        if entry["m"] != consts.m or entry["z"] != consts.z:
            problems.append(f"{sdir}: constants disagree with shape {shape.parts}")
        if entry["d"] != hook_dimension(shape):
            problems.append(f"{sdir}: wrong irreducible dimension")
        arrays = {}
        for key, info in entry["files"].items():
            try:
                data = arrays[key] = read_array(sdir / info["path"], info["count"])
            except CacheFormatError as exc:
                problems.append(str(exc))
                continue
            if key == "col_of":
                counts = np.bincount(data, minlength=entry["m"])
                if len(counts) != entry["m"] or not np.all(
                    counts == factorial(n) // entry["m"]
                ):
                    problems.append(f"{sdir}: column map counts are wrong")
        if "bfs_parent" in arrays and "bfs_swap" in arrays:
            try:
                check_swap_tree(shape, arrays["bfs_parent"], arrays["bfs_swap"], sdir)
            except CacheFormatError as exc:
                problems.append(str(exc))
    return problems

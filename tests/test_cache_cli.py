import codecs
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from math import factorial, floor, log10, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permaframe import build_cache, load_cache, save_cache, verify_cache
from permaframe import cache as cache_mod
from permaframe import schreier
from permaframe.cache import FrameCache, SchreierBundle
from permaframe.cli import main
from permaframe.combinatorics import (
    IntegerPartition,
    block_labels,
    partitions_of,
    reduced_representatives,
)
from permaframe.ballots import read_ballot_file, tally
from permaframe.errors import CacheFormatError
from permaframe.frame import Signal, analyze, analyze_with_conjugates, conjugate_energy_rows
from permaframe.schreier import (
    build_characteristic,
    build_schreier,
    characteristic_column_map,
    key_powers,
    minimal_paths,
    vertex_table,
)
from permaframe.spectral import check_residuals, eigenvalue_key

from oracles import deflation_spectra, gathered_column_map, reference_bfs_tree_arrays


def shape(*parts):
    return IntegerPartition(tuple(parts))


# ---------------------------------------------------------------------------
# the disk cache


def test_save_load_round_trip(tmp_path, rng):
    cache = build_cache(4, "h")
    base = save_cache(cache, tmp_path)
    loaded = load_cache(tmp_path, 4)
    assert loaded.shapes == cache.shapes
    assert sorted(p.name for p in base.iterdir()) == ["arrays.npz", "manifest.json"]
    # only what the eigensolve produced plus the vertex-order guard
    members = _archive(base)
    assert len(members) == 2 * len(cache.shapes)
    for g in cache.shapes:
        a, b = cache.bundles[g], loaded.bundles[g]
        prefix = "s" + "-".join(map(str, g.parts))
        vectors, words = members[f"{prefix}.eigvecs"], members[f"{prefix}.row_words"]
        assert vectors.dtype == np.float64 and vectors.shape == (a.m, a.d)
        assert words.dtype == np.int8 and np.array_equal(words, a.graph.row_words)
        assert np.array_equal(a.spectrum.vectors, b.spectrum.vectors)
        assert a.spectrum.keys == b.spectrum.keys
    f = Signal.random(4, rng)
    ta = analyze(cache, f)
    tb = analyze(loaded, f)
    assert ta.to_csv_text() == tb.to_csv_text()


def test_manifest_holds_only_what_its_readers_read(tmp_path):
    base = save_cache(build_cache(5, "h"), tmp_path)
    manifest = json.loads((base / "manifest.json").read_text())
    assert set(manifest) == {"format", "version", "n", "shapes"}
    for entry in manifest["shapes"]:
        assert set(entry) == {"parts", "m", "z", "d", "eigenvalues", "eigen_keys", "kappas"}


def test_cache_with_the_retired_manifest_fields_verifies(workdir, capsys):
    # caches written when the manifest also held the shape source, top-k and
    # each shape's vertex labels load and verify without a rebuild
    fresh, old = workdir / "fresh", workdir / "old"
    for root in (fresh, old):
        assert run_cli("setup", "--n", 4, "--cache", root) == 0
    base = old / "n=4"
    manifest = json.loads((base / "manifest.json").read_text())
    with np.load(base / "arrays.npz") as arrays:
        for entry in manifest["shapes"]:
            words = arrays["s" + "-".join(map(str, entry["parts"])) + ".row_words"]
            entry["vertex_labels"] = block_labels(words)
    shapes = manifest.pop("shapes")
    manifest.update(shape_source="h", top_k=None, shapes=shapes)
    (base / "manifest.json").write_text(json.dumps(manifest, indent=1))
    assert verify_cache(old, 4) == []
    capsys.readouterr()
    assert run_cli("setup", "--n", 4, "--cache", old) == 0
    assert "verified; nothing to do" in capsys.readouterr().out
    for root in (fresh, old):
        assert run_cli(
            "analyze", "--cache", root, "--ballots", workdir / "votes.txt",
            "--out", workdir / f"{root.name}.csv",
        ) == 0
    assert (workdir / "old.csv").read_bytes() == (workdir / "fresh.csv").read_bytes()


def _archive(base):
    with np.load(base / "arrays.npz") as arrays:
        return {name: arrays[name] for name in arrays.files}


def _rewrite(base, edit):
    """Apply ``edit`` to the archive's members and write them back as a
    well-formed archive, CRCs included."""
    members = _archive(base)
    edit(members)
    with open(base / "arrays.npz", "wb") as fh:
        np.savez(fh, **members)


def _edit_member(name, edit):
    """A corruption that applies ``edit`` to archive member ``name`` in place
    and writes the archive back well-formed."""
    return lambda base: _rewrite(base, lambda members: edit(members[name]))


def _offset(base, name):
    """Where the values of archive member ``name`` start in the archive."""
    at = (base / "arrays.npz").read_bytes().find(_archive(base)[name].tobytes())
    assert at > 0
    return at


def _set_values(arr, changes):
    for t, value in changes.items():
        assert arr.flat[t] != value
        arr.flat[t] = value


def _swap_first_rows(words):
    assert not np.array_equal(words[0], words[1])
    words[[0, 1]] = words[[1, 0]]


def _scale_column(vectors, column, factor):
    vectors[:, column] *= factor


def _edit_manifest(base, edit):
    manifest_path = base / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _edit_shape_entry(base, edit):
    _edit_manifest(base, lambda manifest: edit(manifest["shapes"][1]))  # s3-1


def _truncate(path, nbytes):
    path.write_bytes(path.read_bytes()[:nbytes])


@pytest.mark.parametrize(
    "corrupt, match",
    [
        pytest.param(
            lambda base: _rewrite(base, lambda members: members.pop("s3-1.eigvecs")),
            "s3-1.eigvecs",
            id="missing-file-entry",
        ),
        pytest.param(
            lambda base: _edit_shape_entry(base, lambda entry: entry.update(parts=[1, 3])),
            "nonincreasing",
            id="invalid-shape",
        ),
        pytest.param(
            # s3-1 has three simple eigenvalues; analysis would drop a row
            lambda base: _edit_shape_entry(base, lambda entry: entry["eigen_keys"].pop()),
            "eigenvalue lists",
            id="short-eigenvalue-list",
        ),
        pytest.param(
            # the stored keys must be the eigenvalues' own: a drifted key
            # relabels every CSV row of that eigenvalue
            lambda base: _edit_shape_entry(
                base,
                lambda entry: entry["eigen_keys"].__setitem__(0, entry["eigen_keys"][0] + 1),
            ),
            "eigenvalue keys",
            id="eigen-key-drift",
        ),
        pytest.param(
            lambda base: _truncate(base / "manifest.json", 200),
            "JSONDecodeError",
            id="half-written-manifest",
        ),
        pytest.param(
            # a cache in the earlier per-shape file layout
            lambda base: _edit_manifest(base, lambda manifest: manifest.update(version=1)),
            "run `permaframe setup --n 4`",
            id="version-1-manifest",
        ),
        pytest.param(
            _edit_member("s3-1.row_words", _swap_first_rows),
            "vertex order",
            id="swapped-row-words",
        ),
        pytest.param(
            lambda base: _rewrite(
                base,
                lambda members: members.update({"s3-1.row_words": members["s3-1.row_words"][:, :3]}),
            ),
            "row_words has shape",
            id="row-words-shape",
        ),
        pytest.param(
            # one float rewritten with a matching CRC; entries of unit vectors
            # never equal 1.5
            _edit_member("s3-1.eigvecs", lambda vectors: _set_values(vectors, {5: 1.5})),
            "eigencheck",
            id="eigvecs-drift",
        ),
        pytest.param(
            # still an eigenvector, with a norm 1e-7 off: the gram must see it
            _edit_member("s3-1.eigvecs", lambda vectors: _scale_column(vectors, 1, 1 + 1e-7)),
            "not orthonormal",
            id="eigvec-column-scaled",
        ),
        pytest.param(
            lambda base: _truncate(base / "arrays.npz", _offset(base, "s2-2.eigvecs") + 8),
            "BadZipFile",
            id="truncated-eigvecs",
        ),
        pytest.param(
            # the bytes of an earlier array file where the archive belongs
            lambda base: (base / "arrays.npz").write_bytes(b"PFARRAY1garbage" * 4),
            "BadZipFile: arrays.npz is not a zip archive",
            id="bad-magic",
        ),
        pytest.param(
            lambda base: (base / "arrays.npz").write_bytes(b""),
            "BadZipFile: arrays.npz is not a zip archive",
            id="empty-archive",
        ),
        pytest.param(
            lambda base: (base / "arrays.npz").unlink(),
            "No such file or directory",
            id="missing-archive",
        ),
    ],
)
def test_corrupt_cache_is_rejected(tmp_path, capsys, corrupt, match):
    base = save_cache(build_cache(4, "h"), tmp_path)
    corrupt(base)
    with pytest.raises(CacheFormatError, match=match):
        load_cache(tmp_path, 4)
    problems = verify_cache(tmp_path, 4)
    assert len(problems) == 1 and match in problems[0]
    # no damage may be answered with advice to unpickle the cache
    assert "pickle" not in problems[0]
    votes = tmp_path / "votes.txt"
    votes.write_text("n=4\n1 2 3 4,5\n2 1 4 3,2\n")
    assert main(["analyze", "--cache", str(tmp_path), "--ballots", str(votes)]) == 2
    assert "pickle" not in capsys.readouterr().err
    assert main(["setup", "--n", "4", "--cache", str(tmp_path)]) == 0
    assert "nothing to do" not in capsys.readouterr().out
    assert main(["setup", "--n", "4", "--cache", str(tmp_path)]) == 0
    assert "verified; nothing to do" in capsys.readouterr().out


def test_bytes_changed_in_place_fail_the_archive_crc(tmp_path, capsys):
    # one (3,2,1) eigenvector entry scaled by 1 + 1e-12 where it lies in the
    # archive drifts too little for the residual and orthonormality gates, so
    # the member's CRC-32 is what refuses it
    built = build_cache(6, "h")
    bundle = built.bundle(shape(3, 2, 1))
    drifted = bundle.spectrum.vectors.copy()
    drifted[5, 2] *= 1 + 1e-12
    assert drifted[5, 2] != bundle.spectrum.vectors[5, 2]
    check_residuals(
        dataclasses.replace(bundle.spectrum, vectors=drifted), bundle.graph.apply_laplacian
    )
    base = save_cache(built, tmp_path)
    archive = base / "arrays.npz"
    data = bytearray(archive.read_bytes())
    at = _offset(base, "s3-2-1.eigvecs") + drifted.itemsize * (5 * bundle.d + 2)
    data[at : at + drifted.itemsize] = drifted[5, 2].tobytes()
    archive.write_bytes(data)
    votes = tmp_path / "votes.txt"
    votes.write_text("n=6\n1 2 3 4 5 6,3\n2 1 3 4 6 5,1\n")
    assert main(["analyze", "--cache", str(tmp_path), "--ballots", str(votes)]) == 2
    assert "Bad CRC-32" in capsys.readouterr().err
    assert main(["setup", "--n", "6", "--cache", str(tmp_path)]) == 0
    assert "cache written" in capsys.readouterr().out
    assert main(["setup", "--n", "6", "--cache", str(tmp_path)]) == 0
    assert "verified; nothing to do" in capsys.readouterr().out


def _file_bytes(base):
    return {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}


class Interrupted(BaseException):
    """Stands in for a kill during a cache write."""


@pytest.mark.parametrize("before", ["no-cache", "corrupt-cache"])
def test_interrupted_write_leaves_no_mixed_cache(tmp_path, capsys, monkeypatch, before):
    votes = tmp_path / "votes.txt"
    votes.write_text("n=4\n1 2 3 4,5\n2 1 4 3,2\n")
    analyze = ["analyze", "--cache", str(tmp_path), "--ballots", str(votes)]
    base = tmp_path / "n=4"
    old_files = {}
    if before == "corrupt-cache":
        save_cache(build_cache(4, "h"), tmp_path)
        _edit_member("s3-1.eigvecs", lambda vectors: _set_values(vectors, {5: 1.5}))(base)
        old_files = _file_bytes(base)
    savez = np.savez

    def save_then_stop(fh, **arrays):
        # a rebuild that wrote in place would have mended the archive by now
        savez(fh, **arrays)
        raise Interrupted

    monkeypatch.setattr(cache_mod.np, "savez", save_then_stop)
    with pytest.raises(Interrupted):
        main(["setup", "--n", "4", "--cache", str(tmp_path)])
    monkeypatch.undo()
    # the old cache, if any, is left whole and nothing else is
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["votes.txt"] + (["n=4"] if old_files else [])
    )
    assert _file_bytes(base) == old_files
    assert main(analyze) == 2
    capsys.readouterr()
    assert main(["setup", "--n", "4", "--cache", str(tmp_path)]) == 0
    assert "cache written" in capsys.readouterr().out
    assert verify_cache(tmp_path, 4) == []
    assert main(analyze) == 0


def test_failed_swap_puts_the_old_cache_back(tmp_path, monkeypatch):
    base = save_cache(build_cache(4, "h"), tmp_path)
    old_files = _file_bytes(base)
    replaces = []
    replace = os.replace

    def replace_then_stop(src, dst):
        replaces.append((Path(src).name, Path(dst).name))
        if len(replaces) == 2:  # the new cache moving into place
            raise Interrupted
        replace(src, dst)

    monkeypatch.setattr(cache_mod.os, "replace", replace_then_stop)
    with pytest.raises(Interrupted):
        save_cache(build_cache(4, "h"), tmp_path)
    monkeypatch.undo()
    assert [dst for _, dst in replaces] == [f".n=4.{os.getpid()}.old", "n=4", "n=4"]
    assert [p.name for p in tmp_path.iterdir()] == ["n=4"]
    assert _file_bytes(base) == old_files


def test_setup_clears_a_killed_write(tmp_path, capsys):
    # a writer killed between its two renames leaves the old cache hidden
    # and the new one unmoved, under its own process id
    votes = tmp_path / "votes.txt"
    votes.write_text("n=4\n1 2 3 4,5\n")
    for suffix in ("old", "new"):
        base = save_cache(build_cache(4, "h"), tmp_path / suffix)
        base.rename(tmp_path / f".n=4.999999999.{suffix}")
        (tmp_path / suffix).rmdir()
    analyze = ["analyze", "--cache", str(tmp_path), "--ballots", str(votes)]
    assert main(analyze) == 2
    assert main(["setup", "--n", "4", "--cache", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n=4", "votes.txt"]
    capsys.readouterr()
    assert main(analyze) == 0


def test_cache_with_extra_archive_members_loads(tmp_path, rng):
    # the loader reads the two members of each shape and ignores any others,
    # such as the reading-order column map, the swap tree, each lifting's
    # vertex index and its whole swap path, which earlier caches stored
    cache = build_cache(5, "h")
    base = save_cache(cache, tmp_path)
    extra = {}
    for g in cache.shapes:
        paths = minimal_paths(g)
        parent, swap = reference_bfs_tree_arrays(g)
        legacy = {
            "col_of": build_characteristic(g).col_of,
            "bfs_parent": parent,
            "bfs_swap": swap,
            "reduced_vertex": vertex_table(g)[np.array([p.target.row_word for p in paths]) @ key_powers(g)],
            "swaps": np.array([s for p in paths for s in p.swaps], dtype=np.int64),
            "swap_offsets": np.cumsum([0] + [len(p.swaps) for p in paths]),
        }
        prefix = "s" + "-".join(map(str, g.parts))
        extra.update({f"{prefix}.{key}": arr for key, arr in legacy.items()})
    _rewrite(base, lambda members: members.update(extra))
    assert verify_cache(tmp_path, 5) == []
    loaded = load_cache(tmp_path, 5)
    f = Signal.random(5, rng)
    assert analyze(loaded, f).to_csv_text() == analyze(cache, f).to_csv_text()


def test_deflation_written_cache_loads(tmp_path, rng):
    # caches already on disk hold deflation eigenvectors; they load, and their
    # coefficients agree with the Specht solver's
    built = build_cache(6, "h")
    spectra = deflation_spectra(built.shapes)
    bundles = {
        g: SchreierBundle(g, bundle.graph, spectra[g]) for g, bundle in built.bundles.items()
    }
    base = save_cache(FrameCache(6, bundles), tmp_path)
    manifest = json.loads((base / "manifest.json").read_text())
    manifest["hook_fastpath"] = False  # as such caches were written
    (base / "manifest.json").write_text(json.dumps(manifest, indent=1))
    assert verify_cache(tmp_path, 6) == []
    loaded = load_cache(tmp_path, 6)
    f = Signal.random(6, rng)
    want = analyze(built, f)
    got = analyze(loaded, f)
    for (ia, va), (ib, vb) in zip(got.iter_rows(), want.iter_rows(), strict=True):
        assert ia == ib
        assert abs(va - vb) <= 1e-12


def test_custom_shape_list_is_built_as_given(cache6_all):
    g = shape(3, 2, 1)
    cache = build_cache(6, [g])
    assert cache.shapes == (g,)
    got, want = cache.bundles[g].spectrum, cache6_all.bundles[g].spectrum
    assert got.keys == want.keys and got.kappas == want.kappas
    assert np.abs(np.subtract(got.eigenvalues, want.eigenvalues)).max() <= 1e-12
    assert np.abs(got.vectors - want.vectors).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_yields_every_lifting_column_map(n):
    cache = build_cache(n, "all")
    ranks = np.arange(factorial(n))
    for g in cache.shapes:
        reps = reduced_representatives(g)
        seen = []
        maps = list(cache.iter_lifting_maps(g, ranks))
        for t, col in maps:
            assert col.dtype == np.intp
            assert np.array_equal(col, gathered_column_map(g, reps[t]))
            assert np.array_equal(col, characteristic_column_map(g, reps[t]))
            seen.append(t)
        assert seen == list(range(len(reps)))
        # every yielded map is its own array
        assert len({id(col) for _t, col in maps}) == len(maps)


@st.composite
def shapes_and_ranks(draw):
    n = draw(st.integers(1, 7))
    g = draw(st.sampled_from(partitions_of(n)))
    kind = draw(st.sampled_from(["empty", "full", "subset"]))
    if kind == "empty":
        ranks = np.zeros(0, dtype=np.int64)
    elif kind == "full":
        ranks = np.arange(factorial(n))
    else:
        # any order and any size; analysis passes sorted nonzeros
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(1, factorial(n)))
        ranks = rng.choice(factorial(n), size=size, replace=False)
    return g, ranks


@given(shapes_and_ranks())
def test_walk_over_any_rank_set_matches_the_column_maps(case):
    g, ranks = case
    # the maps read only the shape's row words, so no eigensolve is needed
    cache = FrameCache(g.n, {g: SchreierBundle(g, build_schreier(g), None)})
    reps = reduced_representatives(g)
    seen = []
    for t, col in cache.iter_lifting_maps(g, ranks):
        assert np.array_equal(col, gathered_column_map(g, reps[t], ranks))
        seen.append(t)
    assert seen == list(range(len(reps)))


@pytest.mark.parametrize("batch", [1, 7, 1000])
@pytest.mark.parametrize("kind", ["empty", "full"])
def test_lifting_maps_do_not_depend_on_the_batch(monkeypatch, batch, kind):
    # 7 leaves a ragged last batch for every shape below (z = 60, 45, 1);
    # 1000 exceeds every z, so each shape's keys are one product
    n = 6
    ranks = np.arange(factorial(n) if kind == "full" else 0)
    monkeypatch.setattr(cache_mod, "LIFTING_BATCH", batch)
    for g in (shape(3, 2, 1), shape(2, 2, 1, 1), shape(6)):
        cache = FrameCache(n, {g: SchreierBundle(g, build_schreier(g), None)})
        maps = list(cache.iter_lifting_maps(g, ranks))
        reps = reduced_representatives(g)
        assert [t for t, _col in maps] == list(range(len(reps)))
        for t, col in maps:
            assert col.dtype == np.intp
            assert np.array_equal(col, gathered_column_map(g, reps[t], ranks))


def test_loaded_cache_reconstructs(tmp_path, rng):
    cache = build_cache(5, "h")
    save_cache(cache, tmp_path)
    loaded = load_cache(tmp_path, 5)
    from permaframe.frame import reconstruct

    f = Signal.random(5, rng)
    rec = reconstruct(loaded, f)
    assert np.linalg.norm(rec.values - f.values) < 1e-9 * np.linalg.norm(f.values)


# ---------------------------------------------------------------------------
# command-line interface


@pytest.fixture()
def workdir(tmp_path):
    votes = tmp_path / "votes.txt"
    votes.write_text(
        "n=4\n"
        "1 2 3 4,40\n"
        "2 1 3 4,25\n"
        "1 2 4 3,13\n"
        "3 4 1 2,9\n"
        "4 3 2 1,3\n"
    )
    names = tmp_path / "names.json"
    names.write_text(json.dumps({str(i): f"cand{i}" for i in range(1, 5)}))
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_random_votes(path: Path, n: int, records: int, seed: int) -> Path:
    """A ballot file of uniform random rankings with counts 1..8."""
    rng = np.random.default_rng(seed)
    lines = [f"n={n}"] + [
        " ".join(map(str, rng.permutation(n) + 1)) + f",{rng.integers(1, 9)}"
        for _ in range(records)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def verified_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("verified")
    (root / "votes.txt").write_text("n=4\n1 2 3 4,40\n2 1 3 4,25\n4 3 2 1,3\n")
    assert run_cli("setup", "--n", 4, "--cache", root / "cache") == 0
    return root


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--out", "coeffs.csv"],
        ["analyze", "--format", "json", "--out", "coeffs.json"],
        ["energy", "--out", "energy.csv"],
        ["top", "--out", "top.csv"],
        ["reconstruct"],
        ["gft", "--out", "gft.csv"],
        ["project", "--shape", "2,2", "--blocks", "13|24", "--out", "proj.csv"],
        ["setup", "--n", "4"],
        ["setup", "--n", "5"],
    ],
    ids=[
        "analyze", "analyze_json", "energy", "top", "reconstruct", "gft", "project", "setup",
        "setup_build",
    ],
)
def test_cli_commands_do_not_load_scipy(verified_cache, tmp_path, command):
    # every command runs on numpy alone: those that read the verified n = 4
    # cache, and a setup that builds an n = 5 cache
    building = command == ["setup", "--n", "5"]
    root = tmp_path / "fresh" if building else verified_cache / "cache"
    argv = [*command, "--cache", str(root)]
    if command[0] != "setup":
        argv += ["--ballots", str(verified_cache / "votes.txt")]
    script = (
        "import sys\n"
        "from permaframe.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
    if command[0] == "setup":
        assert ("cache written" if building else "verified; nothing to do") in proc.stdout
    if "--out" in command:
        assert (tmp_path / command[command.index("--out") + 1]).stat().st_size > 0


OUTPUT_COMMANDS = {
    "analyze": ["analyze"],
    "analyze_json": ["analyze", "--format", "json"],
    "energy": ["energy"],
    "top": ["top"],
    "gft": ["gft"],
    "project": ["project", "--shape", "2,2", "--blocks", "13|24"],
}


@pytest.mark.parametrize("command", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS)
def test_cli_output_to_stdout_equals_the_file(verified_cache, tmp_path, capsys, command):
    argv = [*command, "--cache", verified_cache / "cache", "--ballots", verified_cache / "votes.txt"]
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--out", out) == 0
    summary = capsys.readouterr().out  # analyze's, printed after the table
    assert run_cli(*argv, "--out", "-") == 0
    assert capsys.readouterr().out == out.read_text() + summary
    assert out.stat().st_size > 0


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS)
def test_cli_unwritable_out_exits_2(verified_cache, tmp_path, capsys, command, where):
    out = tmp_path / "absent" / "out.txt" if where == "missing-directory" else tmp_path
    argv = [*command, "--cache", verified_cache / "cache", "--ballots", verified_cache / "votes.txt"]
    assert run_cli(*argv, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize(
    "command, sink",
    [
        (["analyze"], "closed-pipe"),
        (["energy"], "full-device"),
        (["reconstruct"], "closed-pipe"),
        (["setup", "--n", "4"], "full-device"),
    ],
    ids=["analyze-closed-pipe", "energy-full-device", "reconstruct-closed-pipe", "setup-full-device"],
)
def test_cli_unwritable_standard_output_exits_2(verified_cache, tmp_path, command, sink):
    # a write to standard output that fails, on a pipe whose reader is gone
    # (`permaframe analyze ... | head -1`) or on a full device, is one error
    # line and exit 2: no traceback, and no report from the final flush
    if sink == "full-device" and not Path("/dev/full").exists():
        pytest.skip("no full device")
    argv = [*command, "--cache", str(verified_cache / "cache")]
    if command[0] != "setup":
        argv += ["--ballots", str(verified_cache / "votes.txt")]
    script = f"import sys\nfrom permaframe.cli import main\nsys.exit(main({argv!r}))\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if sink == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write standard output: ")


def test_cli_analysis_at_n11_holds_no_n_factorial_array(tmp_path, capsys):
    # the tally of 300 rankings is held by its support, so analyze, energy,
    # top and project each peak below a tenth of one float64 value per 11!
    # ranking (319 MB)
    root = tmp_path / "cache"
    assert run_cli("setup", "--n", 11, "--shapes", 3, "--cache", root) == 0
    data = ["--cache", root, "--ballots", write_random_votes(tmp_path / "votes.txt", 11, 300, 11)]
    commands = {
        "analyze": ["analyze"],
        "energy": ["energy"],
        "top": ["top"],
        "project": ["project", "--shape", "9,2", "--blocks", "1,2,3,4,5,6,7,8,9|10,11"],
    }
    for name, command in commands.items():
        tracemalloc.start()
        try:
            assert run_cli(*command, *data, "--out", tmp_path / f"{name}.csv") == 0
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < factorial(11) * 8 / 10, name
        assert (tmp_path / f"{name}.csv").stat().st_size > 0
    assert "captured fraction" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["below-a-file", "a-file"])
def test_cli_unwritable_cache_root_exits_2_before_the_build(tmp_path, capsys, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    root = blocker / "sub" if where == "below-a-file" else blocker
    assert run_cli("setup", "--n", 4, "--cache", root) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {root}: ")
    assert captured.out == ""  # no phase line: nothing was built


def test_cli_failed_cache_write_exits_2(tmp_path, capsys, monkeypatch):
    def full_disk(cache, root):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cache_mod, "save_cache", full_disk)
    assert run_cli("setup", "--n", 4, "--cache", tmp_path / "cache") == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / 'cache'}: [Errno 28] No space left on device\n"


def test_cli_setup_and_idempotence(workdir, capsys):
    cache_dir = workdir / "cache"
    assert run_cli("setup", "--n", 4, "--cache", cache_dir) == 0
    first = capsys.readouterr().out
    assert "phase 1" in first and "phase 2" in first and "phase 3" not in first
    assert "19 atoms" in first
    assert run_cli("setup", "--n", 4, "--cache", cache_dir) == 0
    second = capsys.readouterr().out
    assert "nothing to do" in second


def test_cli_analyze_outputs_and_parseval(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    out_csv = workdir / "coeffs.csv"
    assert (
        run_cli(
            "analyze",
            "--cache", cache_dir,
            "--ballots", workdir / "votes.txt",
            "--out", out_csv,
        )
        == 0
    )
    summary = capsys.readouterr().out
    assert "with transpose completion 1.000000" in summary
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "shape,lambda,k,partition,alpha"
    assert len(lines) == 1 + 19
    # json mirror carries the same rows
    out_json = workdir / "coeffs.json"
    run_cli(
        "analyze", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
        "--out", out_json, "--format", "json",
    )
    payload = json.loads(out_json.read_text())
    assert payload["n"] == 4 and len(payload["rows"]) == 19


def test_cli_energy_covers_all_shapes(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    out = workdir / "energy.csv"
    run_cli("energy", "--cache", cache_dir, "--ballots", workdir / "votes.txt", "--out", out)
    import csv as csv_mod

    with open(out) as fh:
        parsed = list(csv_mod.reader(fh))[1:]
    shapes = {row[0] for row in parsed}
    assert shapes == {"4", "3,1", "2,2", "2,1,1", "1,1,1,1"}
    total = sum(float(row[2]) for row in parsed)
    from permaframe.ballots import read_ballot_file, tally

    signal = tally(read_ballot_file(workdir / "votes.txt"))
    assert total == pytest.approx(signal.norm2(), rel=1e-9)


def _energy_csv(path):
    """(shape, eigenvalue key, energy) per row of an ``energy`` CSV."""
    with open(path) as fh:
        header, *rows = csv.reader(fh)
    assert header == ["shape", "lambda", "energy"]
    return [(IntegerPartition.parse(s), eigenvalue_key(float(lam)), float(e)) for s, lam, e in rows]


def _report_order(rows):
    return sorted(rows, key=lambda r: (tuple(-p for p in r[0].parts), r[1]))


def test_cli_energy_conjugates(tmp_path, capsys):
    votes = write_random_votes(tmp_path / "votes.txt", 5, 60, seed=7)
    cache_dir = tmp_path / "cache"
    assert run_cli("setup", "--n", 5, "--cache", cache_dir) == 0
    cache = load_cache(cache_dir, 5)
    signal = tally(read_ballot_file(votes))
    subset = list(cache.shapes[:2])
    out = {}
    for conjugates in ("auto", "on", "off"):
        for shapes in ([], ["--shapes", 2]):
            path = tmp_path / f"energy-{conjugates}{len(shapes)}.csv"
            argv = ["energy", "--cache", cache_dir, "--ballots", votes, "--out", path]
            assert run_cli(*argv, "--conjugates", conjugates, *shapes) == 0
            out[conjugates, bool(shapes)] = _energy_csv(path)
    # off: the cached shapes' direct rows only
    assert out["off", False] == _report_order(analyze(cache, signal).energy_rows())
    assert out["off", True] == _report_order(analyze(cache, signal, shapes=subset).energy_rows())
    # on: plus the transposes the subset lacks, keys reflected across 2(n-1)
    direct, flipped = analyze_with_conjugates(cache, signal, shapes=subset)
    added = conjugate_energy_rows(flipped)
    assert {row[0] for row in added} == {s.transpose() for s in subset} - set(subset)
    assert out["on", True] == _report_order(direct.energy_rows() + added)
    assert len(out["on", True]) > len(out["off", True])
    # auto completes the full list only
    assert out["auto", False] == out["on", False] != out["off", False]
    assert out["auto", True] == out["off", True]


def test_cli_top_with_names(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    assert (
        run_cli(
            "top", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--count", 5, "--names", workdir / "names.json",
        )
        == 0
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "rank,shape,lambda,k,partition,names,alpha"
    assert len(lines) == 6
    assert "cand" in out


def test_cli_top_orders_like_a_full_sort(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    votes = workdir / "votes.txt"
    assert run_cli("top", "--cache", cache_dir, "--ballots", votes, "--count", 19) == 0
    import csv as csv_mod
    from permaframe.ballots import read_ballot_file, tally

    rows = list(csv_mod.reader(capsys.readouterr().out.splitlines()))[1:]

    table = analyze(load_cache(cache_dir, 4), tally(read_ballot_file(votes)))
    ranked = sorted(
        enumerate(table.iter_rows()), key=lambda item: (-abs(item[1][1]), item[0])
    )
    assert [(row[1], row[3], row[4], row[6]) for row in rows] == [
        (atom.shape.label(), str(atom.k), atom.lifting.label(), repr(alpha))
        for _, (atom, alpha) in ranked
    ]


def test_cli_reconstruct_and_gft(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    assert run_cli("reconstruct", "--cache", cache_dir, "--ballots", workdir / "votes.txt") == 0
    out = capsys.readouterr().out
    err = float(out.split()[-1])
    assert err < 1e-9
    gft_out = workdir / "gft.csv"
    assert run_cli("gft", "--cache", cache_dir, "--ballots", workdir / "votes.txt", "--out", gft_out) == 0
    rows = gft_out.read_text().splitlines()[1:]
    from permaframe.ballots import read_ballot_file, tally

    signal = tally(read_ballot_file(workdir / "votes.txt"))
    assert sum(float(r.split(",")[1]) ** 2 for r in rows) == pytest.approx(
        signal.norm2(), rel=1e-9
    )


def test_cli_project_sums_to_ballot_total(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    out = workdir / "proj.csv"
    assert (
        run_cli(
            "project", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--shape", "2,2", "--blocks", "13|24", "--out", out,
        )
        == 0
    )
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    assert sum(float(r.rsplit(",", 1)[1]) for r in rows) == pytest.approx(90.0)


def test_cli_validation_exit_codes(workdir, capsys, tmp_path):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("n=4\n1 1 2 3,4\n")
    assert run_cli("analyze", "--cache", cache_dir, "--ballots", bad) == 2
    wrong_n = tmp_path / "wrong.txt"
    wrong_n.write_text("n=3\n1 2 3,4\n")
    assert run_cli("analyze", "--cache", cache_dir, "--ballots", wrong_n) == 2
    huge_n = tmp_path / "huge.txt"
    huge_n.write_text("n=1000000000\n")
    assert run_cli("analyze", "--cache", cache_dir, "--ballots", huge_n) == 2
    assert "ballots are for n=1000000000 but the cache is for n=4" in capsys.readouterr().err
    assert (
        run_cli(
            "project", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--shape", "2,2", "--blocks", "123|4",
        )
        == 2
    )
    capsys.readouterr()
    for blocks in ("13|2|x", "1,3|2|x"):
        argv = ["project", "--cache", cache_dir, "--ballots", workdir / "votes.txt"]
        assert run_cli(*argv, "--shape", "2,1,1", "--blocks", blocks) == 2
        assert capsys.readouterr().err == f"error: {blocks!r} is not a block label\n"


@pytest.mark.parametrize("stray", ["n=²", "n=٣", "n=04"])
def test_cli_detects_n_from_cache_directory_names_only(workdir, capsys, stray):
    # a directory whose name is not cache_dir's for an ASCII-decimal n is no
    # cache: a superscript digit is no n, an Arabic-Indic 3 is not n = 3, and
    # n=04 beside n=4 is not a second cache for n = 4
    root = workdir / "cache"
    (root / stray).mkdir(parents=True)
    votes = workdir / "votes.txt"
    assert run_cli("energy", "--cache", root, "--ballots", votes) == 2
    assert capsys.readouterr().err == f"error: no caches found under {root}\n"
    run_cli("setup", "--n", 4, "--cache", root)
    capsys.readouterr()
    assert run_cli("energy", "--cache", root, "--ballots", votes, "--n", 4) == 0
    want = capsys.readouterr().out
    assert run_cli("energy", "--cache", root, "--ballots", votes) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "records",
    [
        f"1 2 3 4,{10**400}\n",  # past float64
        f"1 2 3 4,{10**300}\n",  # a finite count of infinite energy
        # counts that fit, with a sum that does not
        f"1 2 3 4,{10**308}\n2 1 3 4,1\n1 2 3 4,{10**308}\n",
    ],
    ids=["count", "energy", "sum"],
)
def test_cli_refuses_tallies_past_float64(workdir, capsys, records):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    votes = workdir / "huge.txt"
    votes.write_text("n=4\n" + records)
    assert run_cli("analyze", "--cache", cache_dir, "--ballots", votes) == 2
    assert "too large for float64" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert run_cli("setup", "--n", 3, "--cache", root / "cache") == 0
    return root


FUZZ_TOKENS = ["1", "2", "3", "0", "4", "-1", "x", "é", "", str(2**63), str(10**300), str(10**400)]


@st.composite
def fuzz_ballot_files(draw):
    """The bytes of a ballot file for the n = 3 cache, or almost one."""
    header = draw(st.sampled_from(["n=3", "n=3", "n=2", "n=4", "n=0", "n=", "3", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 4))):
        word = draw(st.lists(st.sampled_from(FUZZ_TOKENS[:3]) | st.sampled_from(FUZZ_TOKENS), max_size=4))
        count = draw(st.sampled_from(FUZZ_TOKENS) | st.integers(-(10**20), 10**20).map(str))
        lines.append(" ".join(word) + draw(st.sampled_from([",", ", ", "", ",,"])) + count)
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")
    prefix = draw(st.sampled_from([b"", codecs.BOM_UTF8, codecs.BOM_UTF8 * 2, b"\xff", b"# \xc3\xa9\n"]))
    return prefix + data


@settings(max_examples=60)
@given(
    fuzz_ballot_files(),
    st.sampled_from([["analyze"], ["energy"], ["top"], ["gft"], ["reconstruct"],
                     ["project", "--shape", "2,1", "--blocks", "13|2"]]),
)
@example(f"n=3\n1 2 3,{10**400}\n".encode(), ["analyze"])
def test_cli_exit_codes_on_fuzzed_ballot_files(fuzz_dir, data, command):
    # whatever the file holds, each command exits with a documented code
    # (0, 2 or 3) and lets no exception escape
    votes = fuzz_dir / "votes.txt"
    votes.write_bytes(data)
    argv = [*command, "--cache", fuzz_dir / "cache", "--ballots", votes]
    if command[0] != "reconstruct":
        argv += ["--out", fuzz_dir / "out.txt"]
    assert run_cli(*argv) in (0, 2, 3)


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing", "cannot read ballot file"),
        ("directory", "cannot read ballot file"),
        ("not-utf8", "cannot read ballot file"),
        ("names-key", "cannot read names file"),
    ],
)
def test_cli_unreadable_input_files_exit_2(workdir, capsys, case, message):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    ballots, names = workdir / "votes.txt", workdir / "names.json"
    if case == "missing":
        ballots = workdir / "absent.txt"
    elif case == "directory":
        ballots = workdir
    elif case == "not-utf8":
        ballots = workdir / "latin1.txt"
        ballots.write_bytes("n=4\n# Zo\u00eb\n1 2 3 4,5\n".encode("latin-1"))
    else:
        names.write_text(json.dumps({"x": "Shrimp"}))
    argv = ["top", "--cache", cache_dir, "--ballots", ballots, "--names", names]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_setup_rebuilds_a_cache_of_another_shape_list(tmp_path, capsys, monkeypatch):
    votes = write_random_votes(tmp_path / "votes.txt", 5, 40, seed=5)
    cache_dir = tmp_path / "cache"
    assert run_cli("setup", "--n", 5, "--shapes", 2, "--cache", cache_dir) == 0
    capsys.readouterr()
    assert run_cli("setup", "--n", 5, "--cache", cache_dir) == 0
    out, err = capsys.readouterr()
    assert "cache written" in out and "nothing to do" not in out
    assert "cache holds shapes ['5', '4,1'], not the requested" in err
    assert run_cli("gft", "--cache", cache_dir, "--ballots", votes) == 0
    capsys.readouterr()
    # an intact cache of the requested list is loaded once, and kept
    loads = []
    load = cache_mod.load_cache
    monkeypatch.setattr(cache_mod, "load_cache", lambda *a: loads.append(a) or load(*a))
    assert run_cli("setup", "--n", 5, "--cache", cache_dir) == 0
    assert "verified; nothing to do" in capsys.readouterr().out
    assert len(loads) == 1
    assert run_cli("setup", "--n", 5, "--shapes", 2, "--cache", cache_dir) == 0
    assert "cache written" in capsys.readouterr().out


def test_cache_keyed_on_the_old_grid_is_rebuilt(workdir, capsys):
    # caches written with 1e-6 eigenvalue keys fail to load, and setup
    # replaces them
    base = save_cache(build_cache(4, "h"), workdir / "cache")
    manifest = json.loads((base / "manifest.json").read_text())
    for entry in manifest["shapes"]:
        entry["eigen_keys"] = [round(lam / 1e-6) for lam in entry["eigenvalues"]]
    (base / "manifest.json").write_text(json.dumps(manifest))
    analyze = ["analyze", "--cache", workdir / "cache", "--ballots", workdir / "votes.txt"]
    assert run_cli(*analyze) == 2
    assert "eigenvalue keys disagree" in capsys.readouterr().err
    assert run_cli("setup", "--n", 4, "--cache", workdir / "cache") == 0
    assert "cache written" in capsys.readouterr().out
    assert run_cli(*analyze) == 0


def test_cli_resource_refusals(workdir, capsys):
    assert run_cli("setup", "--n", 11, "--cache", workdir / "c11") == 3
    err = capsys.readouterr().err
    assert "--shapes" in err


def test_cli_setup_refuses_an_oversized_key_table(workdir, capsys, monkeypatch):
    # (3, 1) and (2, 2) need 2**4-entry key tables, (4) one entry
    monkeypatch.setattr(schreier, "MAX_KEY_TABLE", 8)
    assert run_cli("setup", "--n", 4, "--cache", workdir / "cache") == 3
    err = capsys.readouterr().err
    assert err == "error: shape (3, 1) needs a 16-entry key table; the limit is 8\n"
    assert not (workdir / "cache" / "n=4").exists()


@pytest.mark.parametrize("n", [0, -3])
def test_cli_setup_rejects_n_below_one(workdir, capsys, n):
    # no ranking exists: a validation error (exit 2), not a resource refusal
    assert run_cli("setup", f"--n={n}", "--cache", workdir / "c") == 2
    assert f"n={n} must be at least 1" in capsys.readouterr().err
    assert not (workdir / "c").exists()


@pytest.mark.parametrize("k", [0, -2])
def test_cli_setup_rejects_a_shape_count_below_one(workdir, capsys, k):
    # refused before the cache root is created
    assert run_cli("setup", "--n", 4, f"--shapes={k}", "--cache", workdir / "c") == 2
    assert f"shape count k={k} must be positive" in capsys.readouterr().err
    assert not (workdir / "c").exists()


@pytest.mark.parametrize("k", [4, 99])
def test_cli_setup_rejects_a_shape_count_past_the_list(workdir, capsys, k):
    # n = 4's transpose-reduced list holds 3 shapes: a larger count is
    # refused as the analysis commands refuse it, before the cache root is
    # created, not built as the whole list
    assert run_cli("setup", "--n", 4, f"--shapes={k}", "--cache", workdir / "c") == 2
    assert capsys.readouterr().err == f"error: --shapes {k} out of range 1..3\n"
    assert not (workdir / "c").exists()
    assert run_cli("setup", "--n", 4, "--shapes=3", "--cache", workdir / "c") == 0
    assert (workdir / "c" / "n=4" / "manifest.json").exists()


ANALYSIS_COMMANDS = {
    "analyze": ["analyze"],
    "energy": ["energy"],
    "top": ["top"],
    "reconstruct": ["reconstruct"],
    "gft": ["gft"],
    "project": ["project", "--shape", "2,2", "--blocks", "13|24"],
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("command", ANALYSIS_COMMANDS.values(), ids=ANALYSIS_COMMANDS)
def test_cli_analysis_commands_reject_n_below_one(verified_cache, capsys, command, n):
    argv = [*command, "--cache", verified_cache / "cache", "--ballots", verified_cache / "votes.txt"]
    assert run_cli(*argv, f"--n={n}") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n={n} must be at least 1\n"
    assert captured.out == ""


def test_cli_analyze_of_an_empty_tally_prints_both_fractions(verified_cache, tmp_path, capsys):
    # no energy to capture: both fractions read 1 by convention
    empty = tmp_path / "empty.txt"
    empty.write_text("n=4\n")
    argv = ["analyze", "--cache", verified_cache / "cache", "--ballots", empty]
    assert run_cli(*argv, "--out", tmp_path / "coeffs.csv") == 0
    assert capsys.readouterr().out == (
        "signal energy 0.000000; captured fraction 1.000000000 (19 coefficients); "
        "with transpose completion 1.000000000\n"
    )


def test_cli_max_eigs_counts(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    out = workdir / "trunc.csv"
    run_cli(
        "analyze", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
        "--out", out, "--max-eigs", 2,
    )
    assert len(out.read_text().splitlines()) == 1 + 15  # min(2, d) * z per shape


@pytest.mark.parametrize("command, flag", [("analyze", "--max-eigs"), ("top", "--count")])
@pytest.mark.parametrize("value", [0, -1, -3])
def test_cli_rejects_counts_below_one(workdir, capsys, command, flag, value):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    out = workdir / "out.csv"
    argv = [command, "--cache", cache_dir, "--ballots", workdir / "votes.txt", "--out", out]
    assert run_cli(*argv, flag, value) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_truncated_reconstruction_error_matches_the_captured_fraction(tmp_path, capsys):
    # a top-K cache reconstructs the projection onto its shapes and their
    # transposes, so the error is sqrt(1 - the transpose-completed fraction)
    votes = write_random_votes(tmp_path / "votes.txt", 6, 300, seed=11)
    cache_dir = tmp_path / "cache"
    assert run_cli("setup", "--n", 6, "--shapes", 3, "--cache", cache_dir) == 0
    capsys.readouterr()
    argv = ["--cache", cache_dir, "--ballots", votes]
    assert run_cli("analyze", *argv, "--out", tmp_path / "coeffs.csv") == 0
    completed = float(capsys.readouterr().out.split()[-1])
    assert run_cli("reconstruct", *argv) == 0
    err = float(capsys.readouterr().out.split()[-1])
    want = sqrt(1.0 - completed)
    # the error is printed to 4 significant digits, the fraction to 9 decimals
    tol = 0.5 * 10.0 ** (floor(log10(err)) - 3) + 0.5e-9 / (2 * want)
    assert abs(err - want) <= tol


def test_commands_build_no_set_partition_objects(tmp_path):
    # liftings travel as row-word matrices: only parsing a --blocks argument
    # and printing top's rows build OrderedSetPartition objects
    votes = write_random_votes(tmp_path / "votes.txt", 6, 200, seed=12)
    data = ["--cache", "cache", "--ballots", str(votes)]
    commands = [
        ["setup", "--n", "6", "--cache", "cache"],
        ["setup", "--n", "6", "--cache", "cache"],
        ["analyze", *data, "--out", "coeffs.csv"],
        ["analyze", *data, "--format", "json", "--out", "coeffs.json"],
        ["energy", *data, "--out", "energy.csv"],
        ["gft", *data, "--out", "gft.csv"],
        ["reconstruct", *data],
    ]
    script = (
        "from permaframe.cli import main\n"
        "from permaframe.combinatorics import OrderedSetPartition\n"
        "def refuse(self):\n"
        "    raise AssertionError(f'built OrderedSetPartition{self.row_word}')\n"
        "OrderedSetPartition.__post_init__ = refuse\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "verified; nothing to do" in proc.stdout
    assert "relative reconstruction error" in proc.stdout
    for name in ("coeffs.csv", "coeffs.json", "energy.csv", "gft.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_cli_retired_flags_exit_2_and_setup_ignores_mode(verified_cache, tmp_path, capsys):
    # no command reads --threads or --hook-fastpath, and no analysis command
    # --mode, so argparse refuses them like any unknown flag
    data = ["--cache", verified_cache / "cache", "--ballots", verified_cache / "votes.txt"]
    commands = {"setup": ["setup", "--n", 4, "--cache", verified_cache / "cache"]}
    commands.update({name: [*argv, *data] for name, argv in ANALYSIS_COMMANDS.items()})
    for name, argv in commands.items():
        retired = [["--threads", "1"], ["--hook-fastpath"]]
        if name != "setup":
            retired.append(["--mode", "auto"])
        for flags in retired:
            with pytest.raises(SystemExit) as exit_info:
                run_cli(*argv, *flags)
            assert exit_info.value.code == 2, (name, flags)
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    # old setup scripts, the benchmark's among them, pass --mode streamed
    assert run_cli(*commands["setup"], "--mode", "streamed") == 0
    assert "verified; nothing to do" in capsys.readouterr().out
    assert run_cli("setup", "--n", 4, "--cache", tmp_path / "streamed", "--mode", "streamed") == 0
    assert run_cli("setup", "--n", 4, "--cache", tmp_path / "plain") == 0
    assert capsys.readouterr().out.count("cache written") == 2
    for name in ("manifest.json", "arrays.npz"):
        streamed, plain = (tmp_path / root / "n=4" / name for root in ("streamed", "plain"))
        assert streamed.read_bytes() == plain.read_bytes()


def test_cli_cache_root_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("PERMAFRAME_CACHE_ROOT", str(workdir / "envcache"))
    assert run_cli("setup", "--n", 4) == 0
    capsys.readouterr()
    assert (workdir / "envcache" / "n=4" / "manifest.json").exists()
    assert run_cli("reconstruct", "--ballots", workdir / "votes.txt") == 0
    out = capsys.readouterr().out
    assert float(out.split()[-1]) < 1e-9


def test_cli_gft_refuses_partial_cache(workdir, capsys, tmp_path):
    cache_dir = tmp_path / "partial"
    run_cli("setup", "--n", 4, "--cache", cache_dir, "--shapes", 2)
    capsys.readouterr()
    assert run_cli("gft", "--cache", cache_dir, "--ballots", workdir / "votes.txt") == 2


def test_cli_shape_count_out_of_range(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    assert (
        run_cli(
            "analyze", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--shapes", 99,
        )
        == 2
    )

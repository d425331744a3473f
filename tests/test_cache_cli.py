import json

import numpy as np
import pytest

from permaframe import build_cache, load_cache, save_cache, verify_cache
from permaframe.cache import read_array, write_array
from permaframe.cli import main
from permaframe.combinatorics import IntegerPartition, osp_index, reduced_representatives
from permaframe.errors import CacheFormatError
from permaframe.frame import Signal, analyze
from permaframe.schreier import characteristic_column_map, minimal_paths


def shape(*parts):
    return IntegerPartition(tuple(parts))


# ---------------------------------------------------------------------------
# array files and the disk cache


def test_array_file_round_trip(tmp_path):
    path = tmp_path / "a.pfa"
    data = np.arange(17, dtype=np.int64)
    write_array(path, data)
    assert np.array_equal(read_array(path, 17), data)
    floats = np.linspace(0, 1, 9)
    write_array(path, floats)
    assert np.array_equal(read_array(path), floats)


def test_array_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pfa"
    path.write_bytes(b"not an array file")
    with pytest.raises(CacheFormatError):
        read_array(path)
    good = tmp_path / "short.pfa"
    write_array(good, np.arange(10, dtype=np.int64))
    truncated = good.read_bytes()[:-8]
    good.write_bytes(truncated)
    with pytest.raises(CacheFormatError):
        read_array(good)


def test_save_load_round_trip(tmp_path, rng):
    cache = build_cache(4, "h")
    save_cache(cache, tmp_path)
    loaded = load_cache(tmp_path, 4)
    assert loaded.shapes == cache.shapes
    for g in cache.shapes:
        a, b = cache.bundles[g], loaded.bundles[g]
        assert np.array_equal(a.col_of, b.col_of)
        assert np.array_equal(a.bfs_parent, b.bfs_parent)
        assert np.array_equal(a.bfs_swap, b.bfs_swap)
        assert np.allclose(a.spectrum.vectors, b.spectrum.vectors)
        assert a.spectrum.keys == b.spectrum.keys
    f = Signal.random(4, rng)
    ta = analyze(cache, f)
    tb = analyze(loaded, f)
    assert ta.to_csv_text() == tb.to_csv_text()


def test_verify_cache_detects_corruption(tmp_path):
    cache = build_cache(4, "h")
    base = save_cache(cache, tmp_path)
    assert verify_cache(tmp_path, 4) == []
    victim = base / "s3-1" / "col_of.pfa"
    data = read_array(victim).copy()
    data[0] = data[1] = 0  # break the per-column counts
    write_array(victim, data)
    problems = verify_cache(tmp_path, 4)
    assert problems and "counts" in problems[0]


@pytest.mark.parametrize(
    "shape_dir, edits",
    [
        # stored trees: s3-1 parent [-1, 0, 1, 2], swap [0, 3, 2, 1];
        #               s2-2 parent [-1, 0, 1],    swap [0, 2, 3]
        ("s3-1", {"bfs_swap": {2: 0}}),
        ("s3-1", {"bfs_swap": {2: 3}}),  # in range, but leads back to the root
        ("s2-2", {"bfs_parent": {1: 2}, "bfs_swap": {1: 3}}),  # 1 <-> 2, both edges swaps
    ],
    ids=["swap-zero", "wrong-swap", "parent-cycle"],
)
def test_corrupt_swap_tree_is_rejected(tmp_path, capsys, shape_dir, edits):
    base = save_cache(build_cache(4, "h"), tmp_path)
    for key, changes in edits.items():
        victim = base / shape_dir / f"{key}.pfa"
        data = read_array(victim).copy()
        for t, value in changes.items():
            assert data[t] != value
            data[t] = value
        write_array(victim, data)
    with pytest.raises(CacheFormatError, match="swap tree"):
        load_cache(tmp_path, 4)
    problems = verify_cache(tmp_path, 4)
    assert len(problems) == 1 and "swap tree" in problems[0]
    votes = tmp_path / "votes.txt"
    votes.write_text("n=4\n1 2 3 4,5\n2 1 4 3,2\n")
    assert main(["analyze", "--cache", str(tmp_path), "--ballots", str(votes)]) == 2
    assert main(["setup", "--n", "4", "--cache", str(tmp_path)]) == 0
    assert "nothing to do" not in capsys.readouterr().out
    assert verify_cache(tmp_path, 4) == []


def test_cache_with_legacy_path_files_loads(tmp_path, rng):
    # earlier caches also stored each lifting's vertex index and its whole
    # swap path; the loader ignores those entries
    cache = build_cache(5, "h")
    base = save_cache(cache, tmp_path)
    manifest_path = base / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["shapes"]:
        paths = minimal_paths(IntegerPartition(tuple(entry["parts"])))
        legacy = {
            "reduced_vertex": np.array([osp_index(p.target) for p in paths]),
            "swaps": np.array([s for p in paths for s in p.swaps], dtype=np.int64),
            "swap_offsets": np.cumsum([0] + [len(p.swaps) for p in paths]),
        }
        for key, arr in legacy.items():
            name = f"{key}.pfa"
            write_array(base / entry["dir"] / name, arr.astype(np.int64))
            entry["files"][key] = {"path": name, "count": int(arr.size)}
    manifest_path.write_text(json.dumps(manifest, indent=1))
    assert verify_cache(tmp_path, 5) == []
    loaded = load_cache(tmp_path, 5)
    f = Signal.random(5, rng)
    assert analyze(loaded, f).to_csv_text() == analyze(cache, f).to_csv_text()


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_yields_every_lifting_column_map(n):
    cache = build_cache(n, "all")
    for g in cache.shapes:
        reps = reduced_representatives(g)
        seen = []
        for t, col in cache.iter_lifting_maps(g):
            assert col.dtype == np.int64
            assert np.array_equal(col, characteristic_column_map(g, reps[t]))
            seen.append(t)
        assert sorted(seen) == list(range(len(reps)))
        root = next(cache.iter_lifting_maps(g))[1]
        assert root is cache.bundles[g].col_of and not root.flags.writeable


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


def test_cli_setup_and_idempotence(workdir, capsys):
    cache_dir = workdir / "cache"
    assert run_cli("setup", "--n", 4, "--cache", cache_dir) == 0
    first = capsys.readouterr().out
    assert "phase 1" in first and "phase 2" in first and "phase 3" in first
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


def test_cli_modes_are_byte_identical(workdir, capsys):
    cache_dir = workdir / "cache"
    run_cli("setup", "--n", 4, "--cache", cache_dir)
    capsys.readouterr()
    outs = {}
    for mode in ("cached", "streamed"):
        out = workdir / f"coeffs-{mode}.csv"
        run_cli(
            "analyze", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--out", out, "--mode", mode,
        )
        outs[mode] = out.read_bytes()
    assert outs["cached"] == outs["streamed"]


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
    assert (
        run_cli(
            "project", "--cache", cache_dir, "--ballots", workdir / "votes.txt",
            "--shape", "2,2", "--blocks", "123|4",
        )
        == 2
    )


def test_cli_resource_refusals(workdir, capsys):
    assert run_cli("setup", "--n", 11, "--cache", workdir / "c11") == 3
    err = capsys.readouterr().err
    assert "--shapes" in err


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


def test_hook_fastpath_cache_agrees(rng):
    fast = build_cache(5, "h", hook_fastpath=True)
    slow = build_cache(5, "h")
    f = Signal.random(5, rng)
    a = analyze(fast, f)
    b = analyze(slow, f)
    for (ia, va), (ib, vb) in zip(a.iter_rows(), b.iter_rows()):
        assert ia == ib
        assert va == pytest.approx(vb, abs=1e-9)


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

"""Benchmark of the ``permaframe`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository and uses the package under ``src/``.
Each command is a fresh ``permaframe`` process with default flags, as a user
runs it, against a cache written by the workload's own ``setup``.

``--trace 0`` times the commands and prints the end-to-end metrics: setup
runs cold several times first, then one whole pass over the other commands
runs, and further passes run, command by command, until ``--seconds`` have
gone by since the first began; each metric is a median, scaled for the
machine's speed (see ``Probe``).  ``--trace 1`` runs one pass through
``trace_cli.py`` and prints the per-layer metrics built from its spans.  Both
check every output (see ``Checker``); the last line of standard output is the
JSON result and the line before it a JSON record with the run's metadata,
samples and gates.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, project_blocks, write_ballots

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0
REPEATS = 2  # runs per pass of the short commands (setup verify, project)
PROBE_REF_S = 0.1  # about the median of Probe on the VM of the baseline in README.md
CLI = "import sys; from permaframe.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "cache_mb": "MB",
    "setup_verify_s": "s",
    "analyze_s": "s",
    "analyze_rss_mb": "MB",
    "analyze_json_s": "s",
    "energy_s": "s",
    "reconstruct_s": "s",
    "top_s": "s",
    "project_s": "s",
}
ANALYSIS_STEPS = ("analyze", "analyze_json", "energy", "reconstruct", "top")
SPAN_TIMES = (
    "schreier.adjacent_swap_maps",
    "cache.iter_lifting_maps",
    "frame.analyze",
    "frame.to_csv_text",
    "frame.to_json_text",
    "frame.synthesize",
    "frame.sign_flip",
    "combinatorics.sign_vector",
    "ballots.read_ballot_file",
    "ballots.tally",
    "spectral.deflate_and_solve",
    "schreier.build_schreier",
    "schreier.build_characteristic",
    "schreier.minimal_paths",
    "combinatorics.word_table",
    "cache.build_cache",
    "cache.save_cache",
    "cache.verify_cache",
    "cache.load_cache",
    "schreier.build_schreier_direct",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    "frame.analyze_self_s": "s",
    **{f"frame.analyze_calls.{step}": "count" for step in ANALYSIS_STEPS},
    "cache.liftings_visited": "count",
    "cache.index_map_bytes": "bytes",
    "cache.held_map_bytes": "bytes",
    "cache.bytes": "bytes",
    **{
        f"cli.self_s.{step}": "s"
        for step in ("setup", "setup_verify", *ANALYSIS_STEPS, "project")
    },
    "process.import_s": "s",
    "process.trace_overhead_s": "s",
}
# tracer counters that are a peak over the commands, not a sum
PEAK_COUNTERS = ("ballots.records", "ballots.support", "cache.held_map_bytes")
# tracer counters that describe the input and output, kept in the record only
DESCRIPTORS = ("ballots.records", "ballots.support", "frame.coefficients")


# ---------------------------------------------------------------------------
# running commands


class Probe:
    """A fixed mix of interpreter, memory-gather and BLAS work that uses
    nothing of the program.  Its time follows the machine's speed, which on a
    shared VM drifts by up to half over minutes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.perm = rng.permutation(1 << 21)
        self.mat = rng.standard_normal((400, 400))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i % 7
        self.perm[self.perm].sum()
        self.mat @ self.mat
        return time.perf_counter() - t0


@dataclass
class Result:
    step: str
    wall_s: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str


class Runner:
    """Runs one CLI process at a time and measures its wall time and peak RSS."""

    def __init__(self, work: Path, deadline: float, trace: bool) -> None:
        self.work = work
        self.deadline = deadline
        self.trace = trace
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PERMAFRAME_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.traces: list[dict] = []
        self.count = 0
        self.probe = Probe()
        self.probe_s: list[float] = []  # one before each untraced command

    def run(self, step: str, argv: list[str]) -> Result:
        self.count += 1
        if not self.trace:
            self.probe_s.append(self.probe())
        out, err, res, spans = (
            self.work / f"cmd{self.count}.{ext}" for ext in ("out", "err", "res.json", "spans.json")
        )
        if self.trace:
            cmd = [sys.executable, str(HERE / "trace_cli.py"), str(spans), step, "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI, *argv]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Result(step, 0.0, 0.0, -1, "", "not run: the run's time limit has passed")
        spawn = [sys.executable, str(HERE / "spawn.py"), str(res), str(timeout), "--", *cmd]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(spawn, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            try:
                proc.wait(timeout + 5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        stats = json.loads(res.read_text()) if proc.returncode == 0 else {"wall_s": 0.0, "rss_kb": 0, "rc": -1}
        if self.trace and stats["rc"] == 0:
            self.traces.append({**json.loads(spans.read_text()), "process_wall_s": stats["wall_s"]})
        return Result(
            step, stats["wall_s"], stats["rss_kb"] * 1024 / 1e6, stats["rc"], out.read_text(), err.read_text()
        )


# ---------------------------------------------------------------------------
# checks


def parse_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


class Checker:
    """Correctness gates on the outputs of one pass: ``check`` returns
    (gate, passed) pairs for the command that wrote them."""

    def __init__(self, w: Workload, inputs: dict, out: Path, cache: Path) -> None:
        self.w, self.inputs, self.out = w, inputs, out
        manifest = json.loads((cache / f"n={w.n}" / "manifest.json").read_text())
        self.atoms = sum(s["d"] * s["z"] for s in manifest["shapes"])
        self.summary: dict | None = None
        self.alphas: list[float] = []

    def check(self, r: Result) -> list[tuple[str, bool]]:
        gates = [("exit 0", r.rc == 0)]
        if r.rc == 0:
            gates += getattr(self, f"check_{r.step}")(r)
        return gates

    def check_setup_verify(self, r: Result) -> list[tuple[str, bool]]:
        return [("verified, not rebuilt", "verified; nothing to do" in r.stdout)]

    def check_analyze(self, r: Result) -> list[tuple[str, bool]]:
        m = re.search(
            r"signal energy ([\d.]+); captured fraction ([\d.]+) \((\d+) coefficients\)"
            r"(?:; with transpose completion ([\d.]+))?",
            r.stdout,
        )
        rows = parse_csv(self.out / "analyze.csv")
        self.alphas = [float(row["alpha"]) for row in rows]
        if not m:
            return [("summary printed", False)]
        energy, direct, count = float(m[1]), float(m[2]), int(m[3])
        completed = float(m[4]) if m[4] else None
        self.summary = {"energy": energy, "direct": direct, "completed": completed}
        sum_sq = math.fsum(a * a for a in self.alphas)
        gates = [
            ("rows == manifest atoms", len(rows) == self.atoms == count),
            ("signal energy == sum of squared counts", close(energy, self.inputs["energy"], 1e-12, 1e-6)),
            # the fraction is printed to 9 decimals
            ("sum alpha^2 == captured x energy", close(sum_sq, direct * energy, 1e-12, 1e-9 * energy)),
            ("completion printed", completed is not None),
        ]
        if self.w.full_h:
            gates.append(("completion == 1", completed is not None and abs(completed - 1) <= 1e-9))
        return gates

    def check_analyze_json(self, r: Result) -> list[tuple[str, bool]]:
        rows = json.loads((self.out / "analyze.json").read_text())["rows"]
        return [("json alphas == csv alphas", [row["alpha"] for row in rows] == self.alphas)]

    def check_energy(self, r: Result) -> list[tuple[str, bool]]:
        total = math.fsum(float(row["energy"]) for row in parse_csv(self.out / "energy.csv"))
        s = self.summary
        ok = bool(s) and s["completed"] is not None and close(
            total, s["completed"] * s["energy"], 1e-12, 1e-9 * s["energy"]
        )
        return [("energies sum to completed energy", ok)]

    def check_gft(self, r: Result) -> list[tuple[str, bool]]:
        total = math.fsum(float(row["norm"]) ** 2 for row in parse_csv(self.out / "gft.csv"))
        return [("gft energies sum to signal energy", close(total, self.inputs["energy"], 2e-9))]

    def check_reconstruct(self, r: Result) -> list[tuple[str, bool]]:
        m = re.search(r"relative reconstruction error (\S+)", r.stdout)
        if not m or not self.summary or self.summary["completed"] is None:
            return [("error printed", False)]
        err = float(m[1])
        if self.w.full_h:
            return [("reconstruction error < 1e-10", err < 1e-10)]
        missing = math.sqrt(max(1.0 - self.summary["completed"], 0.0))
        return [("error^2 == 1 - completed", close(err, missing, 1e-2, 1e-9))]

    def check_top(self, r: Result) -> list[tuple[str, bool]]:
        mags = [abs(float(row["alpha"])) for row in parse_csv(self.out / "top.csv")]
        return [
            ("top row count", len(mags) == min(20, self.atoms)),
            ("top descending |alpha|", all(a >= b for a, b in zip(mags, mags[1:]))),
            ("top[0] == max |alpha|", bool(mags) and mags[0] == max(map(abs, self.alphas), default=-1)),
        ]

    def check_project(self, r: Result) -> list[tuple[str, bool]]:
        total = math.fsum(float(row["value"]) for row in parse_csv(self.out / "project.csv"))
        return [("project sums to voters", close(total, self.inputs["voters"], 1e-12))]


# ---------------------------------------------------------------------------
# one run


def pass_steps(w: Workload, cache: Path, ballots: Path, blocks: str, out: Path, repeats: int, first: bool):
    """(step, argv, output file) for one pass; ``gft`` is a gate only, so it
    runs in the first pass alone.  The short commands come first, so that a
    pass cut short by time still samples them: a single sample of them
    spreads most."""
    base = ["--cache", str(cache), "--ballots", str(ballots)]
    verify = ["setup", "--n", str(w.n), "--cache", str(cache), *w.setup_args]
    shape = ",".join(map(str, w.project_shape))
    project = ["project", *base, "--shape", shape, "--blocks", blocks]
    steps = [("setup_verify", verify, None)] * repeats + [("project", project, "project.csv")] * repeats + [
        ("analyze", ["analyze", *base], "analyze.csv"),
        ("analyze_json", ["analyze", *base, "--format", "json"], "analyze.json"),
        ("energy", ["energy", *base], "energy.csv"),
        ("reconstruct", ["reconstruct", *base], None),
        *([("gft", ["gft", *base], "gft.csv")] if w.full_h and first else []),
        ("top", ["top", *base], "top.csv"),
    ]
    return [(step, argv + (["--out", str(out / f)] if f else []), f) for step, argv, f in steps]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_workload(w: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = np.random.default_rng(seed)
    runner = Runner(work, deadline, trace)
    out = work / "out"
    out.mkdir()
    ballots = work / "ballots.txt"
    t0 = time.perf_counter()
    inputs = write_ballots(ballots, w.make_ballots(w.n, rng), w.n, rng)
    inputs["generate_s"] = time.perf_counter() - t0
    blocks = project_blocks(w.project_shape, rng)

    samples: dict[str, list[Result]] = defaultdict(list)
    gates: list[dict] = []
    attempted = failed = 0

    def record(r: Result, ok: list[tuple[str, bool]]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not all(passed for _name, passed in ok):
            failed += 1
            gates.append({"step": r.step, "failed": [n for n, p in ok if not p], "stderr": r.stderr[-400:]})
        samples[r.step].append(r)

    cache = None
    for i in range(1 if trace else w.cold_setups):
        cache = work / f"cache{i}"
        r = runner.run("setup", ["setup", "--n", str(w.n), "--cache", str(cache), *w.setup_args])
        record(r, [("exit 0", r.rc == 0), ("cache written", "cache written to" in r.stdout)])
        if i:
            shutil.rmtree(work / f"cache{i - 1}")
    cache_bytes = dir_bytes(cache)
    if samples["setup"][-1].rc != 0:
        raise SystemExit("setup failed:\n" + samples["setup"][-1].stderr)

    # the first pass runs whole and is checked in full; later ones run while
    # time is left and must repeat its bytes
    checker = Checker(w, inputs, out, cache)
    fingerprints: dict[str, tuple] = {}
    t_measure = time.perf_counter()
    passes = 0
    while passes == 0 or (not trace and time.perf_counter() - t_measure < seconds):
        for step, argv, out_file in pass_steps(w, cache, ballots, blocks, out, 1 if trace else REPEATS, not passes):
            if passes and time.perf_counter() - t_measure >= seconds:
                break
            r = runner.run(step, argv)
            fp = (r.stdout, sha256(out / out_file) if out_file and r.rc == 0 else None)
            if step not in fingerprints:
                ok = checker.check(r)
                fingerprints[step] = fp
            else:
                ok = [("exit 0", r.rc == 0), ("same bytes as the first run", fp == fingerprints[step])]
            record(r, ok)
        passes += 1

    def median(step: str, field: str = "wall_s") -> float:
        return statistics.median(getattr(r, field) for r in samples[step])

    if trace:
        metrics = layer_metrics(runner.traces, cache_bytes)
        units = PER_LAYER
    else:
        # times are scaled to the machine speed at which the probe takes
        # PROBE_REF_S, so that the machine's drift between runs cancels
        speed = statistics.median(runner.probe_s) / PROBE_REF_S
        raw = {
            f"{step}_s": median(step)
            for step in ("setup", "setup_verify", *ANALYSIS_STEPS, "project")
        }
        metrics = {
            **{k: v / speed for k, v in raw.items()},
            "setup_rss_mb": median("setup", "rss_mb"),
            "cache_mb": cache_bytes / 1e6,
            "analyze_rss_mb": median("analyze", "rss_mb"),
        }
        units = END_TO_END
    record_line = {
        "workload": w.name,
        "trace": trace,
        "meta": metadata(seed),
        "inputs": inputs,
        "passes": passes,
        "samples": {
            step: [{"wall_s": r.wall_s, "rss_mb": r.rss_mb} for r in rs] for step, rs in samples.items()
        },
        "output_sha256": {step: fp[1] for step, fp in fingerprints.items() if fp[1]},
        "failed_gates": gates,
    }
    if not trace:
        record_line["probe"] = {"samples_s": runner.probe_s, "speed": speed, "raw_times_s": raw}
    if trace:
        record_line["descriptors"] = {k: metrics[k] for k in DESCRIPTORS}
        record_line["spans"] = span_summary(runner.traces)
    return {
        "record": record_line,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


# ---------------------------------------------------------------------------
# traces


def walk_spans(traces: list[dict]):
    """Yield (trace, span, duration, self time) for every recorded span."""
    for tr in traces:
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for _name, _tag, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, span in enumerate(spans):
            dur = span[3] - span[2]
            yield tr, span, dur, dur - child[i]


def layer_metrics(traces: list[dict], cache_bytes: int) -> dict:
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for tr, (name, tag, *_rest), dur, own in walk_spans(traces):
        incl[name] += dur
        self_s[name] += own
        if name == "frame.analyze":
            out[f"frame.analyze_calls.{tr['command']}"] += 1
        if name == "cli.main":
            out[f"cli.self_s.{tr['command']}"] += own
    for name in SPAN_TIMES:
        out[f"{name}_s"] = incl[name]
    out["frame.analyze_self_s"] = self_s["frame.analyze"]
    for tr in traces:
        for key, value in tr["counters"].items():
            if key in PEAK_COUNTERS:
                out[key] = max(out[key], value)
            else:
                out[key] += value
        out["process.import_s"] += tr["import_s"]
        out["process.trace_overhead_s"] += tr["install_s"] + tr["tail_s"] + len(tr["spans"]) * tr["span_cost_s"]
    out["cache.bytes"] = cache_bytes
    return out  # a command that failed leaves its metrics at 0


def span_summary(traces: list[dict]) -> dict:
    """Per command: the traced process's wall time and the part of it that no
    measured phase covers (interpreter start and exit); inclusive/self seconds
    and calls per span name; per-shape eigensolves."""
    summary: dict = {}
    for tr in traces:
        names: dict = defaultdict(lambda: [0.0, 0.0, 0])
        eig: dict = {}
        for _tr, (name, tag, *_rest), dur, own in walk_spans([tr]):
            entry = names[name]
            entry[0] += dur
            entry[1] += own
            entry[2] += 1
            if name == "spectral.deflate_and_solve":
                eig[tag] = dur
        main_s = tr["spans"][0][3] - tr["spans"][0][2]
        summary[tr["command"]] = {
            "wall_s": tr["process_wall_s"],
            "unaccounted_s": tr["process_wall_s"]
            - (tr["import_s"] + tr["install_s"] + main_s + tr["tail_s"]),
            "spans": {k: {"incl_s": v[0], "self_s": v[1], "calls": v[2]} for k, v in names.items()},
            **({"deflate_and_solve_s": eig} if eig else {}),
        }
    return summary


# ---------------------------------------------------------------------------
# metadata


def metadata(seed: int) -> dict:
    import ctypes

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn:
            threads = fn()
    mem = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem = int(line.split()[1]) * 1024
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_bytes": mem,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "permaframe" / "cli.py").is_file():
        print(f"error: no permaframe package under {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(res["record"]))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

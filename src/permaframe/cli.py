"""Command-line front end.

Subcommands: ``setup`` (build the per-n cache), ``analyze`` (coefficient
table), ``energy`` (shape/eigenvalue energy rows), ``top`` (largest-magnitude
coefficients), ``reconstruct`` (round-trip error), ``gft`` (eigenvalue-norm
rows), ``project`` (signal accumulated onto one Schreier graph).

Exit codes: 0 success, 2 validation error, 3 resource refusal.  The default
cache root comes from ``PERMAFRAME_CACHE_ROOT`` when set.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from math import sqrt
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from . import cache as cache_mod
from . import frame
from .ballots import load_candidate_names, read_ballot_file, tally
from .combinatorics import IntegerPartition, OrderedSetPartition, block_labels, check_dense_n
from .errors import (
    CacheFormatError,
    PermaframeError,
    ResourceLimitError,
    ValidationError,
)
from .spectral import key_to_value

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

CACHE_ROOT_ENV = "PERMAFRAME_CACHE_ROOT"


def _default_cache_root() -> str:
    return os.environ.get(CACHE_ROOT_ENV, "./permaframe-cache")


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=_default_cache_root(),
        help=f"cache root directory (default: ${CACHE_ROOT_ENV} or ./permaframe-cache)",
    )


def _add_common_analysis_args(parser: argparse.ArgumentParser, *, out: bool = True) -> None:
    _add_cache_arg(parser)
    parser.add_argument("--ballots", required=True, help="ballot file to tally")
    parser.add_argument("--n", type=int, default=None,
                        help="cache to read (default: the only one under --cache)")
    if out:
        parser.add_argument("--out", default="-", help="output file (default: - for stdout)")


def _detect_n(root: str) -> int:
    """The n of the only directory under ``root`` named as ``cache_dir``
    names the cache for an ASCII-decimal n (``n=07`` and ``n=²`` are not)."""
    candidates = sorted(
        int(digits)
        for p in Path(root).glob("n=*")
        if p.is_dir() and (digits := p.name[2:]).isascii() and digits.isdigit()
        and p.name == cache_mod.cache_dir(root, int(digits)).name
    )
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise CacheFormatError(f"no caches found under {root}")
    raise ValidationError(
        f"multiple caches under {root} (n={candidates}); pass --n"
    )


def _load_inputs(args) -> tuple[cache_mod.FrameCache, frame.Signal, str]:
    """The cache for ``--n`` (the only one under ``--cache`` when not given),
    the tally of ``--ballots`` and the ballot file's label."""
    n = _detect_n(args.cache) if args.n is None else args.n
    if n < 1:
        raise ValidationError(f"n={n} must be at least 1")
    cache = cache_mod.load_cache(args.cache, n)
    ballots = read_ballot_file(args.ballots)
    if ballots.n != cache.n:
        raise ValidationError(
            f"ballots are for n={ballots.n} but the cache is for n={cache.n}"
        )
    return cache, tally(ballots), ballots.label


def _shape_subset(shapes, count: int | None):
    """The first ``count`` of ``shapes``, None when not given; a count past
    the list is refused."""
    if count is None:
        return None
    if count < 1 or count > len(shapes):
        raise ValidationError(f"--shapes {count} out of range 1..{len(shapes)}")
    return list(shapes[:count])


def _write_out(path: str | None, write: Callable[[TextIO], object]) -> None:
    """Call ``write`` on standard output, flushed, or on the file at
    ``path``, opened only now that the result is complete; a path or a
    standard output that cannot be written is a ``ValidationError``."""
    if path in (None, "-"):
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full device
            _detach_stdout()
            raise ValidationError(f"cannot write standard output: {exc}") from exc
        return
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _say(line: str) -> None:
    """Print one line to standard output, as ``_write_out`` writes it."""
    _write_out(None, lambda fh: print(line, file=fh))


def _detach_stdout() -> None:
    """Point the process's standard output at the null device once a write to
    it failed, so that the interpreter's last flush of what that write left
    buffered neither fails nor reports."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor behind it: nothing is flushed at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


# ---------------------------------------------------------------------------
# subcommands


def cmd_setup(args) -> int:
    n = args.n
    check_dense_n(n)
    if args.shapes is None and n > cache_mod.FULL_H_MAX_N:
        raise ResourceLimitError(
            f"full transpose-reduced setup is refused above n={cache_mod.FULL_H_MAX_N}; "
            f"pass --shapes K to build the first K shapes"
        )
    # a count below 1 is refused here, one past the list by _shape_subset
    shapes = cache_mod.resolve_shape_list(n, "h", args.shapes)
    shapes = _shape_subset(shapes, args.shapes) or shapes
    # a root that cannot be made fails here, not after the eigensolves
    try:
        Path(args.cache).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.cache}: {exc}") from exc
    base = cache_mod.cache_dir(args.cache, n)
    if base.exists() and not args.force:
        problems = cache_mod.verify_cache(args.cache, n, shapes)
        if not problems:
            _say(f"cache at {base} verified; nothing to do")
            return EXIT_OK
        print(f"cache at {base} failed verification; rebuilding:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
    built = cache_mod.build_cache(n, shapes, log=_say)
    try:
        cache_mod.save_cache(built, args.cache)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.cache}: {exc}") from exc
    _say(f"cache written to {base} ({built.atom_count()} atoms)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cache, signal, label = _load_inputs(args)
    flipped = None
    if args.shapes is None and args.max_eigs is None:
        table, flipped = frame.analyze_with_conjugates(cache, signal, dataset=label)
    else:
        table = frame.analyze(
            cache,
            signal,
            shapes=_shape_subset(cache.shapes, args.shapes),
            max_eigs=args.max_eigs,
            dataset=label,
        )
    _write_out(args.out, table.write_json if args.format == "json" else table.write_csv)
    energy = signal.norm2()

    def fraction(captured: float) -> float:
        # an all-zero tally has nothing to capture: its fractions read 1
        return captured / energy if energy > 0 else 1.0

    summary = (
        f"signal energy {energy:.6f}; captured fraction "
        f"{fraction(table.total_energy()):.9f} ({table.row_count} coefficients)"
    )
    if flipped is not None:
        completed = fraction(table.total_energy() + flipped.total_energy())
        summary += f"; with transpose completion {completed:.9f}"
    _say(summary)
    return EXIT_OK


def cmd_energy(args) -> int:
    cache, signal, _ = _load_inputs(args)
    shapes = _shape_subset(cache.shapes, args.shapes)
    if args.conjugates == "on" or (args.conjugates == "auto" and shapes is None):
        table, flipped = frame.analyze_with_conjugates(cache, signal, shapes=shapes)
        rows = table.energy_rows() + frame.conjugate_energy_rows(flipped)
    else:
        rows = frame.analyze(cache, signal, shapes=shapes).energy_rows()
    rows.sort(key=lambda r: (tuple(-p for p in r[0].parts), r[1]))
    out = ["shape,lambda,energy\n"]
    for shape, key, energy in rows:
        out.append(f'"{shape.label()}",{key_to_value(key):.9f},{energy!r}\n')
    _write_out(args.out, lambda fh: fh.writelines(out))
    return EXIT_OK


def cmd_top(args) -> int:
    if args.count < 1:
        raise ValidationError(f"--count {args.count} must be at least 1")
    cache, signal, _ = _load_inputs(args)
    names = load_candidate_names(args.names) if args.names else None
    table = frame.analyze(
        cache,
        signal,
        shapes=_shape_subset(cache.shapes, args.shapes),
    )
    # a stable sort keeps report order among equal magnitudes
    alphas = np.concatenate([b.alphas.ravel() for b in table.blocks])
    ranked = np.argsort(-np.abs(alphas), kind="stable")[: args.count]
    out_rows = [("rank", "shape", "lambda", "k", "partition", "names", "alpha")]
    for rank, index in enumerate(ranked, start=1):
        atom_id, alpha = table.row(int(index))
        named = ""
        if names:
            named = "|".join(
                ",".join(names.get(e, str(e)) for e in block)
                for block in atom_id.lifting.blocks
            )
        out_rows.append(
            (
                rank,
                atom_id.shape.label(),
                f"{atom_id.eigenvalue:.9f}",
                atom_id.k,
                atom_id.lifting.label(),
                named,
                repr(alpha),
            )
        )
    _write_out(args.out, lambda fh: csv.writer(fh, lineterminator="\n").writerows(out_rows))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cache, signal, _ = _load_inputs(args)
    rec = frame.reconstruct(cache, signal)
    ranks, weights = signal.support()
    rec.values[ranks] -= weights  # the residual
    norm = sqrt(signal.norm2())
    err = sqrt(rec.norm2()) / norm if norm else 0.0
    _say(f"relative reconstruction error {err:.3e}")
    return EXIT_OK


def cmd_gft(args) -> int:
    cache, signal, _ = _load_inputs(args)
    rows = frame.graph_fourier(cache, signal)
    out = ["lambda,norm\n"]
    out.extend(f"{key_to_value(key):.9f},{norm!r}\n" for key, norm in rows)
    _write_out(args.out, lambda fh: fh.writelines(out))
    return EXIT_OK


def cmd_project(args) -> int:
    cache, signal, _ = _load_inputs(args)
    shape = IntegerPartition.parse(args.shape)
    lifting = OrderedSetPartition.parse_label(args.blocks, cache.n)
    if lifting.shape != shape:
        raise ValidationError(
            f"blocks {args.blocks!r} do not form a partition of shape {shape.parts}"
        )
    values = frame.schreier_projection(cache, signal, shape, lifting)
    out = ["vertex,value\n"]
    for label, value in zip(block_labels(cache.bundle(shape).graph.row_words), values):
        out.append(f'"{label}",{float(value)!r}\n')
    _write_out(args.out, lambda fh: fh.writelines(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permaframe",
        description=(
            "Tight spectral frame transform for ranked data on the permutahedron"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="build the data-independent cache for one n")
    p.add_argument("--n", type=int, required=True)
    _add_cache_arg(p)
    p.add_argument("--shapes", type=int, default=None, help="keep only the first K shapes")
    # setup has one eigensolver; perfbench's n9_sparse workload passes --mode streamed
    p.add_argument("--mode", choices=["cached", "streamed", "auto"], default="auto",
                   help="accepted and ignored: old setup scripts pass it")
    p.add_argument("--force", action="store_true", help="rebuild even if the cache verifies")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("analyze", help="write the coefficient table for a ballot file")
    _add_common_analysis_args(p)
    p.add_argument("--shapes", type=int, default=None, help="first K cached shapes only")
    p.add_argument("--max-eigs", type=int, default=None,
                   help="keep at most M eigenvectors per shape")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("energy", help="energy per shape-eigenvalue pair")
    _add_common_analysis_args(p)
    p.add_argument("--shapes", type=int, default=None)
    p.add_argument("--conjugates", choices=["auto", "on", "off"], default="auto",
                   help="complete transpose shapes through the sign trick")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("top", help="largest-magnitude coefficients")
    _add_common_analysis_args(p)
    p.add_argument("--shapes", type=int, default=None)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--names", default=None, help="JSON file of candidate names")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("reconstruct", help="round-trip a ballot signal and report the error")
    _add_common_analysis_args(p, out=False)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gft", help="norms of the signal per Laplacian eigenvalue")
    _add_common_analysis_args(p)
    p.set_defaults(func=cmd_gft)

    p = sub.add_parser("project", help="accumulate the signal onto one Schreier graph")
    _add_common_analysis_args(p)
    p.add_argument("--shape", required=True, help='shape, e.g. "8,2"')
    p.add_argument("--blocks", required=True,
                   help='lifting in block-label format, e.g. "245|13"')
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidationError, CacheFormatError, PermaframeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``permaframe`` CLI command in-process with spans around the public
functions of every module.

Usage: ``python3 trace_cli.py SPANS_JSON COMMAND_NAME -- <cli arguments>``

Each wrapped call records (name, tag, start, end, parent).  Every name that a
``permaframe.*`` module binds to a wrapped function is rebound, so calls made
through re-exports and ``from x import y`` bindings are seen too.  For
``FrameCache.iter_lifting_maps`` each ``next()`` is one span.  Spans stay in
memory and are written to SPANS_JSON when the command returns; the exit code
is the command's.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import permaframe.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

FUNCTIONS = {
    "combinatorics": ["word_table", "sign_vector"],
    "schreier": [
        "adjacent_swap_maps",
        "build_schreier",
        "build_schreier_direct",
        "build_characteristic",
        "minimal_paths",
    ],
    "spectral": ["deflate_and_solve"],
    "cache": ["build_cache", "save_cache", "load_cache", "verify_cache"],
    "ballots": ["read_ballot_file", "tally"],
    "frame": [
        "analyze",
        "synthesize",
        "reconstruct",
        "sign_flip",
        "graph_fourier",
        "schreier_projection",
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, start, end, parent]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.held: dict[str, int] = {}

    def enter(self, name: str, tag: str = "") -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, tag, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: int, keep_max: bool = False) -> None:
        old = self.counters.get(key, 0)
        self.counters[key] = max(old, value) if keep_max else old + value

    def hold(self, kind: str, nbytes: int) -> None:
        """Set the bytes of index maps of one kind the command now holds."""
        self.held[kind] = nbytes
        self.count("cache.held_map_bytes", sum(self.held.values()), True)

    def wrap(self, name: str, fn, tag_of=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name, tag_of(args) if tag_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per ``next()`` of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                self.count("cache.liftings_visited", 1)
                self.count("cache.index_map_bytes", item[1].nbytes)
                yield item

        return traced


def rebind(old, new) -> None:
    """Point every ``permaframe.*`` name bound to ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "permaframe" or mod_name.startswith("permaframe."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    import numpy as np

    mods = {name: sys.modules[f"permaframe.{name}"] for name in FUNCTIONS}
    hooks = {
        "spectral.deflate_and_solve": {
            "tag_of": lambda args: "-".join(map(str, args[0].parts))
        },
        "ballots.read_ballot_file": {
            "after": lambda args, res: tracer.count("ballots.records", len(res.records), True)
        },
        "schreier.adjacent_swap_maps": {
            # memoized, so held for the rest of the command
            "after": lambda args, res: tracer.hold("swap", res.nbytes)
        },
        "ballots.tally": {
            "after": lambda args, res: tracer.count(
                "ballots.support", int(np.count_nonzero(res.values)), True
            )
        },
    }
    for mod_name, names in FUNCTIONS.items():
        for fn_name in names:
            old = getattr(mods[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            rebind(old, tracer.wrap(name, old, **hooks.get(name, {})))

    def hold_stored(args, _res) -> None:
        # composed maps the cache keeps in cached mode, this shape's included
        stored = sum(vec.nbytes for maps in args[0]._perm_store.values() for _t, vec in maps)
        tracer.hold("stored", stored)

    cache_cls = mods["cache"].FrameCache
    cache_cls.perm_vectors = tracer.wrap("cache.perm_vectors", cache_cls.perm_vectors, after=hold_stored)
    cache_cls.iter_lifting_maps = tracer.wrap_generator(
        "cache.iter_lifting_maps", cache_cls.iter_lifting_maps
    )

    def count_rows(args, _res) -> None:
        tracer.count("frame.coefficients", args[0].row_count)

    table_cls = mods["frame"].CoefficientTable
    for meth in ("to_csv_text", "to_json_text"):
        setattr(table_cls, meth, tracer.wrap(f"frame.{meth}", getattr(table_cls, meth), after=count_rows))


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one."""
    probe = Tracer()
    noop = lambda: None  # noqa: E731
    traced = probe.wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    t1 = time.perf_counter()
    for _ in range(samples):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / samples


def main() -> int:
    out_path, command = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    tracer = Tracer()
    t0 = time.perf_counter()
    install(tracer)
    install_s = time.perf_counter() - t0
    root = tracer.enter("cli.main", command)
    try:
        rc = permaframe.cli.main(argv)
    finally:
        tracer.exit(root)
    t_tail = time.perf_counter()
    cost = span_cost()
    record = {
        "command": command,
        "rc": rc,
        "import_s": IMPORT_S,
        "install_s": install_s,
        "tail_s": time.perf_counter() - t_tail,
        "span_cost_s": cost,
        "counters": tracer.counters,
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

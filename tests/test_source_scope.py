"""Everything public in ``src/permaframe`` serves the package, its demos, its
README or the benchmark's tracer; helpers that only tests use live in
``tests/``."""

import argparse
import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from permaframe import build_cache, save_cache
from permaframe.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

# the methods the tracer's ``install`` wraps or calls beside ``FUNCTIONS``
TRACED_ATTRIBUTES = [
    ("cache", "FrameCache", "perm_vectors"),
    ("cache", "FrameCache", "iter_lifting_maps"),
    ("frame", "CoefficientTable", "to_csv_text"),
    ("frame", "CoefficientTable", "to_json_text"),
    ("ballots", "BallotFile", "records"),
]


def traced_functions() -> dict[str, list[str]]:
    """``perfbench/trace_cli.py``'s ``FUNCTIONS`` (module -> function names),
    read from the source without importing the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "trace_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/trace_cli.py assigns no FUNCTIONS")


def traced_names() -> set[str]:
    return {name for names in traced_functions().values() for name in names}


def test_every_name_the_tracer_binds_resolves():
    functions = traced_functions()
    for module, names in functions.items():
        mod = importlib.import_module(f"permaframe.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"permaframe.{module}.{name}"
    source = (ROOT / "perfbench" / "trace_cli.py").read_text()
    for module, cls, attr in TRACED_ATTRIBUTES:
        assert attr in source, f"the tracer no longer uses {cls}.{attr}"
        value = getattr(getattr(importlib.import_module(f"permaframe.{module}"), cls), attr, None)
        assert value is not None, f"permaframe.{module}.{cls}.{attr}"


def benchmark_shape_fields() -> set[str]:
    """The keys ``perfbench/run.py`` reads from the entries of a cache
    manifest's ``shapes`` list: ``s["key"]`` inside a loop or comprehension
    over ``manifest["shapes"]`` with target ``s``, read from the source."""
    fields = set()
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "run.py").read_text())):
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        for loop in loops:
            if ast.unparse(loop.iter) != "manifest['shapes']":
                continue
            fields |= {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and ast.unparse(sub.value) == ast.unparse(loop.target)
                and isinstance(sub.slice, ast.Constant)
            }
    return fields


def test_a_fresh_manifest_writes_every_shape_field_the_benchmark_reads(tmp_path):
    fields = benchmark_shape_fields()
    assert fields, "perfbench/run.py no longer reads manifest['shapes'] entries"
    base = save_cache(build_cache(4, "h"), tmp_path)
    for entry in json.loads((base / "manifest.json").read_text())["shapes"]:
        assert fields <= set(entry), f"the manifest lacks {sorted(fields - set(entry))}"


def names_used(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_user_outside_the_tests():
    statements = []  # (defined name or None, names the statement uses)
    public = {}  # name -> "module:line (lines)"
    for path in sorted((ROOT / "src" / "permaframe").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # a re-export is not a use
            name = getattr(node, "name", None)
            statements.append((name, names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                public[name] = f"{path.name}:{first} ({node.end_lineno - first + 1} lines)"
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text())) | traced_names()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        outside |= names_used(ast.parse(demo.read_text()))
    # a definition that only unused definitions use is unused as well
    unused: set[str] = set()
    while True:
        used = set(outside)
        for name, refs in statements:
            if name not in unused:
                used |= refs - {name}
        newly = set(public) - used - unused
        if not newly:
            break
        unused |= newly
    assert not unused, "only tests use: " + ", ".join(
        f"{name} ({public[name]})" for name in sorted(unused)
    )


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an object: its longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def docstring_references(path: Path) -> list[tuple[str, str]]:
    """(where, dotted target) of every ``:func:`` and ``:meth:`` reference in
    a module's docstrings.  A bare :func: target is a module name; a bare
    :meth: target is an attribute of the enclosing class."""
    module = f"permaframe.{path.stem}"
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for role, target in re.findall(r":(func|meth):`~?([\w.]+)`", ast.get_docstring(node) or ""):
                if "." not in target:
                    target = f"{module if role == 'func' else scope}.{target}"
                out.append((f"{path.name}:{getattr(node, 'lineno', 1)}", target))
        for child in ast.iter_child_nodes(node):
            visit(child, f"{scope}.{child.name}" if isinstance(child, ast.ClassDef) else scope)

    visit(ast.parse(path.read_text()), module)
    return out


def test_every_docstring_reference_resolves():
    broken = [
        f"{where} {target}"
        for path in sorted((ROOT / "src" / "permaframe").glob("*.py"))
        for where, target in docstring_references(path)
        if not resolves(target)
    ]
    assert not broken, "unresolved references: " + ", ".join(broken)


def test_every_submodule_name_the_readme_quotes_resolves():
    submodules = {path.stem for path in (ROOT / "src" / "permaframe").glob("*.py")}
    quoted = re.findall(r"`(\w+)\.([\w.]+)`", (ROOT / "README.md").read_text())
    names = [f"permaframe.{sub}.{rest}" for sub, rest in quoted if sub in submodules]
    assert names, "the README quotes no submodule names"
    broken = [name for name in names if not resolves(name)]
    assert not broken, "unresolved README names: " + ", ".join(broken)


# (subcommand, option dest) pairs accepted without being read, with the reason
UNREAD_OPTIONS = {
    # perfbench's n9_sparse workload runs `setup --mode streamed`
    ("setup", "mode"): "old setup scripts pass it",
}


def args_read(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """The ``args.<attr>`` names that ``cli.py``'s function ``name`` reads,
    itself or through the ``cli.py`` functions it calls."""
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in functions and node.func.id not in seen:
                read |= args_read(functions, node.func.id, seen)
    return read


def test_every_cli_option_is_read_by_its_command():
    tree = ast.parse((ROOT / "src" / "permaframe" / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    unread = {}
    for command, parser in commands.choices.items():
        read = args_read(functions, parser.get_default("func").__name__, set())
        for action in parser._actions:
            if action.option_strings and action.dest != "help" and action.dest not in read:
                unread[command, action.dest] = action.help
    assert set(unread) == set(UNREAD_OPTIONS), f"options no command reads: {sorted(unread)}"
    for key, reason in UNREAD_OPTIONS.items():
        assert unread[key] == f"accepted and ignored: {reason}"


def test_the_ci_workflow_runs_the_tier_1_and_benchmark_tests():
    # on every push and pull request, on the oldest and a recent Python, the
    # workflow installs the package with its test extras and runs ROADMAP.md's
    # Tier-1 command and the benchmark's own tests
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    triggers = workflow[True] if True in workflow else workflow["on"]  # YAML 1.1 reads `on` as true
    assert set(triggers) == {"push", "pull_request"}
    (job,) = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.12"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    (tier1,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert runs == ['python -m pip install -e ".[test]"', tier1, "python -m pytest perfbench"]

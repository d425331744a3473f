"""Everything public in ``src/permaframe`` serves the package, its demos, its
README or the benchmark's tracer; helpers that only tests use live in
``tests/``."""

import ast
import importlib
import re
from pathlib import Path

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

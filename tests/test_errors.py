"""The error contract in the source: every failure is raised as one of the
two families that ``cli.main`` maps onto exit codes 2 and 3."""

import ast
from pathlib import Path

import geotax
from geotax import errors

SRC = Path(geotax.__file__).resolve().parent
FAMILIES = {"ConfigError", "DataError"}


def parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_errors_module_defines_only_the_families():
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == FAMILIES | {"GeotaxError"}


def test_every_raise_names_a_family_or_reraises():
    bad = []
    for rel, tree in parsed_sources():
        # _decode, the UTF-8 check of read_text, raises the family its
        # caller passes in as ``error``
        passed_in = set()
        if rel == "core/io.py":
            decode, = (n for n in tree.body
                       if isinstance(n, ast.FunctionDef) and n.name == "_decode")
            passed_in = {id(n) for n in ast.walk(decode)
                         if isinstance(n, ast.Raise) and raised_name(n) == "error"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None or id(node) in passed_in:
                continue
            if raised_name(node) not in FAMILIES:
                bad.append(f"{rel}:{node.lineno}: {ast.unparse(node)}")
    assert bad == []


def test_no_other_exception_class_in_the_source():
    derived = [
        f"{rel}:{node.lineno}: {node.name}"
        for rel, tree in parsed_sources() if rel != "errors.py"
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for base in node.bases
        if isinstance(base, ast.Name) and base.id.endswith(("Error", "Exception"))
    ]
    assert derived == []

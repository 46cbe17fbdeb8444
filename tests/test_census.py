"""The code census: every top-level ``def`` and ``class`` in the source is
referenced somewhere in ``src/`` or ``scripts/`` outside its own
definition.  A function only the tests call belongs in the tests.

The allowlist holds the library entry points that no subcommand calls
yet, each with the README feature or acceptance criterion it backs.  It
must match exactly, so a name leaves it when it gets a caller.

Every method and property of a source class is referenced in ``src/``,
``scripts/`` or ``bench/`` outside its own class.  Names with a leading
underscore (dunders, private helpers, members of private classes) are
the class's own business and are exempt."""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "geotax"
SCRIPTS = REPO / "scripts"
BENCH = REPO / "bench"

ALLOWLIST = {
    "dynamics.py:estimate_lle": "README: Lyapunov exponent estimation; acceptance 8",
    "dynamics.py:lorenz_twins": "README: Lyapunov exponent estimation; acceptance 8",
    "dynamics.py:butterfly_test": "README: a butterfly attractor test; acceptance 8",
    "quantize.py:reconstruction_mse": "README: reconstruction MSE, the double bind; acceptance 7",
    "quantize.py:boundary_crossing_rate": "README: boundary-crossing rates; acceptance 7",
    "texture.py:rc_permutation": "README: reverse-complement checks; acceptance 6",
    "texture.py:rc_kmer_cosine": "README: forward/reverse-complement composition checks",
}


def parsed(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text(), str(path))


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is loaded or taken as an attribute in ``tree``;
    an import alone is not a reference."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def references(*roots: Path) -> Counter:
    """``referenced_names`` summed over every file under ``roots``."""
    counts = Counter()
    for root in roots:
        for _, tree in parsed(root):
            counts += referenced_names(tree)
    return counts


def unreferenced() -> set[str]:
    sources = list(parsed(SRC))
    everywhere = references(SRC, SCRIPTS)
    return {
        f"{rel}:{node.name}"
        for rel, tree in sources
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # every reference lies inside the definition itself
        and everywhere[node.name] == referenced_names(node)[node.name]
    }


def test_every_definition_has_a_caller_or_an_allowlisted_feature():
    found = unreferenced()
    assert sorted(found - ALLOWLIST.keys()) == [], "unused: move to the tests or delete"
    assert sorted(ALLOWLIST.keys() - found) == [], "has a caller now: drop from ALLOWLIST"


def unreferenced_members() -> set[str]:
    sources = list(parsed(SRC))
    everywhere = references(SRC, SCRIPTS, BENCH)
    return {
        f"{rel}:{cls.name}.{node.name}"
        for rel, tree in sources
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        # every reference lies inside the class itself
        and everywhere[node.name] == referenced_names(cls)[node.name]
    }


def test_every_public_member_is_read_outside_its_class():
    assert sorted(unreferenced_members()) == [], "unused: move to the tests or delete"

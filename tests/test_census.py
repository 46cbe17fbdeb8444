"""The code census: every top-level ``def`` and ``class`` in the source is
referenced somewhere in ``src/`` or ``scripts/`` outside its own
definition.  A function only the tests call belongs in the tests.

The allowlist holds the library entry points that no subcommand calls
yet, each with the README feature or acceptance criterion it backs.  It
must match exactly, so a name leaves it when it gets a caller."""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "geotax"
SCRIPTS = REPO / "scripts"

ALLOWLIST = {
    "dynamics.py:estimate_lle": "README: Lyapunov exponent estimation; acceptance 8",
    "dynamics.py:lorenz_twins": "README: Lyapunov exponent estimation; acceptance 8",
    "dynamics.py:butterfly_test": "README: a butterfly attractor test; acceptance 8",
    "quantize.py:reconstruction_mse": "README: reconstruction MSE, the double bind; acceptance 7",
    "quantize.py:boundary_crossing_rate": "README: boundary-crossing rates; acceptance 7",
    "texture.py:rc_permutation": "README: reverse-complement checks; acceptance 6",
    "texture.py:rc_kmer_cosine": "README: forward/reverse-complement composition checks",
    "perturb.py:pad_random": "README: padding (perturb.py)",
    "procrustes.py:frozen_head_agreement": "README: frozen-head checks (procrustes.py)",
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


def unreferenced() -> set[str]:
    sources = list(parsed(SRC))
    everywhere = Counter()
    for _, tree in [*sources, *parsed(SCRIPTS)]:
        everywhere += referenced_names(tree)
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

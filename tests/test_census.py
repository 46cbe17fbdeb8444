"""The code census: every top-level ``def`` and ``class`` in the source is
referenced somewhere in ``src/`` or ``scripts/`` outside its own
definition.  A function only the tests call belongs in the tests.

The allowlist holds the library entry points that no subcommand calls
yet, each with the README feature or acceptance criterion it backs.  It
must match exactly, so a name leaves it when it gets a caller.

Every method and property of a source class is referenced in ``src/``,
``scripts/`` or ``bench/`` outside its own class.  Names with a leading
underscore (dunders, private helpers, members of private classes) are
the class's own business and are exempt.

Every annotated field of a public source class is read as an attribute
in ``src/``, ``scripts/`` or ``bench/``, outside its class or inside a
public member that is itself read outside the class.  ``WHOLE`` holds
the classes whose fields are read all at once or by no subcommand, each
with its reason, and must match exactly too.

Every defaulted parameter of a public function or method is passed, by
keyword or by position, in some call in ``src/`` or ``scripts/``: a
default no caller overrides is a path no subcommand reaches.  A call
that passes the parameter's own default literal again does not count.
Calls are matched by name alone.  The parameters of the functions on
``ALLOWLIST`` are skipped; ``SEAMS`` holds the parameters only the tests
pass, each with its reason, and must match exactly too."""

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

FORCED_SPLITS = "tests pin the halves for the duplicated-row and identical-subset oracles"
SEAMS = {
    "stability.py:sample_split(forced_splits)": FORCED_SPLITS,
    "stability.py:feature_split(forced_splits)": FORCED_SPLITS,
    "stability.py:anchor_stability(forced_splits)": FORCED_SPLITS,
    "ingest/fetch.py:fetch_genome(transport)": "tests serve recorded responses, never the network",
    "cli.py:main(argv)": "tests run the CLI in-process; the program passes none, so argparse "
                         "reads sys.argv",
    "mine/estimator.py:excess_mi_report(pca_dim)": "tests pass None to score the embeddings "
                                                   "without the PCA reduction",
    "mine/estimator.py:sanity_suite(rhos)": "tests run two correlations instead of four to "
                                            "stay fast",
    "mine/estimator.py:sanity_suite(cfg)": "tests train a smaller network for fewer epochs to "
                                           "stay fast",
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


WHOLE = {
    "stability.py:StabilityReport": "report.json holds it whole, through asdict",
    "dynamics.py:LLEResult": "the result of estimate_lle, on ALLOWLIST",
    "dynamics.py:ButterflyResult": "the result of butterfly_test, on ALLOWLIST",
}


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each attribute is read (loaded) in ``tree``."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def unread_fields() -> set[str]:
    held = unreferenced_members()
    everywhere = Counter()
    for root in (SRC, SCRIPTS, BENCH):
        for _, tree in parsed(root):
            everywhere += attribute_reads(tree)
    found = set()
    for rel, tree in parsed(SRC):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            inside = attribute_reads(cls)
            # a read in a public member that is read outside the class counts
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and f"{rel}:{cls.name}.{node.name}" not in held):
                    inside -= attribute_reads(node)
            found |= {
                f"{rel}:{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and everywhere[node.target.id] == inside[node.target.id]
            }
    return found


def test_every_field_is_read_outside_its_class_or_the_class_is_read_whole():
    found = unread_fields()
    classes = {key.rsplit(".", 1)[0] for key in found}
    assert sorted(key for key in found if key.rsplit(".", 1)[0] not in WHOLE) == [], \
        "never read: delete the field"
    assert sorted(WHOLE.keys() - classes) == [], "every field is read now: drop from WHOLE"


def defaulted(fn: ast.FunctionDef, bound: bool):
    """(name, position, keyword, default) of each defaulted parameter of
    ``fn``; the position counts from the first argument a call passes, so
    it skips ``self``, and is None for a keyword-only parameter, as the
    keyword is for a positional-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), start=first):
        yield arg.arg, i - bound, None if arg in args.posonlyargs else arg.arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.arg, default


def public_functions():
    """(key, name, function, bound) of every public top-level function and
    every public method of a public class in the source."""
    for rel, tree in parsed(SRC):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{rel}:{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        yield f"{rel}:{node.name}.{fn.name}", fn.name, fn, not static


def calls_by_name(*roots: Path) -> dict[str, list[ast.Call]]:
    calls = {}
    for root in roots:
        for _, tree in parsed(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def restates(value: ast.expr, default: ast.expr) -> bool:
    """Whether ``value`` is the literal ``default`` written out again."""
    try:
        ast.literal_eval(default)
    except ValueError:
        return False
    return ast.dump(value) == ast.dump(default)


def passes(call: ast.Call, position: int | None, keyword: str | None,
           default: ast.expr) -> bool:
    keywords = {kw.arg: kw.value for kw in call.keywords}
    if None in keywords:  # **kwargs may carry any keyword
        return True
    if keyword in keywords:
        return not restates(keywords[keyword], default)
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
        return True
    return len(call.args) > position and not restates(call.args[position], default)


def unpassed_parameters() -> set[str]:
    calls = calls_by_name(SRC, SCRIPTS)
    return {
        f"{key}({param})"
        for key, name, fn, bound in public_functions()
        if key not in ALLOWLIST
        for param, position, keyword, default in defaulted(fn, bound)
        if not any(passes(call, position, keyword, default) for call in calls.get(name, ()))
    }


def test_every_defaulted_parameter_is_passed_by_a_caller_or_is_a_seam():
    found = unpassed_parameters()
    assert sorted(found - SEAMS.keys()) == [], "never passed: delete the parameter's path"
    assert sorted(SEAMS.keys() - found) == [], "passed by a caller now: drop from SEAMS"

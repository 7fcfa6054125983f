"""The package's layering: every module imports only from the modules
below it, function-level imports included."""

import ast
from pathlib import Path

import cwbrauer
from cwbrauer.errors import ParseError, SemanticError, UnsupportedComputation
from cwbrauer.spaces import _KNOWN_RULES, EQUAL, STRICT, UNKNOWN

# bottom up; the package's __init__ sits above them all
LAYERS = ("errors", "facts", "intlin", "abgroup", "chaincx", "limits",
          "profiles", "spaces", "grammar", "cli")
PACKAGE = Path(cwbrauer.__file__).parent


def _package_imports(tree: ast.AST) -> set[str]:
    """Names of the package's modules that the tree imports anywhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("cwbrauer.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "cwbrauer":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            found |= {module} if module else {a.name for a in node.names}
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_from_lower_layers():
    for i, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        upward = _package_imports(tree) - set(LAYERS[:i])
        assert not upward, f"{name} imports {sorted(upward)}"


def _lim1_reasons() -> set[str]:
    """The reason strings that limits.lim1_certificate can return: the
    second argument of each Lim1Certificate(...) built in limits.py."""
    tree = ast.parse((PACKAGE / "limits.py").read_text())
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Lim1Certificate"
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)}


def test_cli_formats_and_does_not_decide():
    """Citations come with the certificates of spaces and limits, Br with
    spaces.brauer_group, and exit codes with the exception classes of
    errors.  So cli.py names no certificate rule, lim^1 reason or
    equality verdict, outside the frozen reproduce table, and sorts no
    exception by class.  Its argument parsers read, and the library
    checks what they read, so cli.py constructs two refusals only: the
    ParseError of an unknown command, and the SemanticError of a
    negative degree, which the library answers with the trivial group."""
    reasons = _lim1_reasons()
    assert reasons == {"JensenFinite", "MittagLeffler"}  # the scan sees them
    verdicts = {EQUAL, STRICT, UNKNOWN}
    assert verdicts == {"EQUAL", "STRICT", "UNKNOWN"}
    decided = set(_KNOWN_RULES) | reasons | verdicts
    errors = {c.__name__ for c in (ParseError, SemanticError,
                                   UnsupportedComputation)}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    refusals = []   # (top-level definition, error class) of each raise
    for node in tree.body:
        if getattr(node, "name", None) == "_reproduce_items":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant):
                assert sub.value not in decided, (
                    f"cli.py line {sub.lineno} names {sub.value!r}")
            # a verdict read by its name: imported, or as a module's attribute
            name = (getattr(sub, "id", None) or getattr(sub, "attr", None)
                    or getattr(sub, "name", None))
            assert name not in verdicts, (
                f"cli.py line {sub.lineno} reads {name}")
            if (isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", None) == "isinstance"):
                named = {n.id for n in ast.walk(sub.args[1])
                         if isinstance(n, ast.Name)}
                assert not named & errors, (
                    f"cli.py line {sub.lineno} sorts errors by class")
            if (isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", None) in errors):
                refusals.append((node.name, sub.func.id))
    assert refusals == [("parse_request", "ParseError"),
                        ("_space_degree", "SemanticError")]

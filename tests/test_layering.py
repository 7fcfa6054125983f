"""The package's layering: every module imports only from the modules
below it, function-level imports included."""

import ast
from pathlib import Path

import cwbrauer

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

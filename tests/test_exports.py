"""Every public name earns its export: the package itself, a demo or the
benchmark uses it, so no helper lives on for its tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oppsched"

# CustomPolicy is the prefix-dependent reference rule for the acceptance
# criterion on conditional means: the criterion needs a causal rule that is
# not stationary, and only the tests build one.
EXEMPT = {"CustomPolicy"}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def referenced_names(path: Path) -> set[str]:
    """Names of the package that ``path`` reads: a name it imports from the
    package or defines at top level, read bare, or an attribute read off one
    of those.  A ``def`` or ``class`` line alone is no reference, and neither
    is a local variable that happens to share a package name."""
    tree = ast.parse(path.read_text())
    bound = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "oppsched"):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name for a in node.names if a.name.startswith("oppsched")}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(referenced_names, files))
    unused = [name for name in exported_names() if name not in used | EXEMPT]
    assert unused == []

"""Guards on the package source: stdlib-only imports, and no definition
that nothing refers to."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iotra"
IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_files() -> list[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"iotra"}
    bad = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in package_files()
        for line, name in imported_roots(parse(path))
        if name not in allowed
    ]
    assert not bad


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code uses: loads, attributes, imports, keyword
    arguments, and string constants that are identifiers (names passed
    to getattr or to a wrapper)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value)):
            out.add(node.value)
    return out


def test_every_definition_has_a_reference():
    used: set[str] = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= referenced_names(parse(path))
    unused = []
    for path in package_files():
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not unused


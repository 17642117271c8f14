"""Guards on the package source: stdlib-only imports, no import that its
module does not use, and no definition that no program path refers to."""

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


def imported_names(tree: ast.Module):
    """(line, name) of every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def exported_names(tree: ast.Module) -> set[str]:
    """The strings listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_package_has_no_unused_import():
    unused = []
    for path in package_files():
        tree = parse(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        loaded |= exported_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for line, name in imported_names(tree) if name not in loaded]
    assert not unused


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code uses: loads, attributes, keyword arguments,
    and string constants that are identifiers (names passed to getattr or
    to a wrapper). Assigning or importing a name is not a use of it."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value)):
            out.add(node.value)
    return out


def program_files() -> list[Path]:
    """The files whose references keep a definition alive: the package
    and the benchmark, not the tests."""
    bench = [p for p in (ROOT / "perfbench").rglob("*.py")
             if not p.name.startswith("test_")]
    return package_files() + sorted(bench)


def definitions(tree: ast.Module):
    """(line, name) of every function and class, and of every name bound
    by a module-level assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_every_definition_has_a_reference():
    used: set[str] = set()
    for path in program_files():
        used |= referenced_names(parse(path))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in package_files()
        for line, name in definitions(parse(path))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
    ]
    assert not unused

"""Guards on the package source: stdlib-only imports, no import that its
module does not use, no definition that no program path refers to, and
no module that reads another iotra module's private (``_``) name."""

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


def private_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, "module._name") for every name with a leading underscore
    that the module takes from another iotra module, by attribute or by
    import."""
    modules: set[str] = set()  # names bound to iotra modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("iotra")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append((node.lineno, f"{node.module}.{alias.name}"))
                elif node.module is None or node.module == "iotra":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            out.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return out


def test_no_module_reads_another_modules_private_name():
    bad = [f"{path.relative_to(ROOT)}:{line}: {name}"
           for path in package_files()
           for line, name in private_reads(parse(path))]
    assert not bad


def imported_modules(path: Path, tree: ast.Module):
    """(line, dotted name) of every iotra module or name an import in the
    file at ``path`` reaches, with relative imports resolved."""
    package = ["iotra", *path.relative_to(PACKAGE).parent.parts]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_only_the_harness_imports_the_harness():
    """The fleet, scenarios and CLI sit on top of the platform and its
    modules, never below them."""
    bad = [f"{path.relative_to(ROOT)}:{line}: {name}"
           for path in package_files() if "harness" not in path.relative_to(PACKAGE).parts
           for line, name in imported_modules(path, parse(path))
           if name == "iotra.harness" or name.startswith("iotra.harness.")]
    assert not bad


# Definitions that only the benchmark still reaches: its tracer wraps the
# two validators by name and reads the other two. The change to the
# benchmark that drops those references empties this set, and with it
# the definitions; no other name may come to rest on the benchmark alone.
BENCH_ONLY = {"find_channels", "late_count", "payload_to_scalars", "validate_payload"}


def test_only_the_listed_definitions_live_on_the_benchmark_alone():
    package: set[str] = set()
    for path in package_files():
        package |= referenced_names(parse(path))
    bench: set[str] = set()
    for path in program_files():
        if PACKAGE not in path.parents:
            bench |= referenced_names(parse(path))
    defined = {name for path in package_files() for _, name in definitions(parse(path))}
    assert {name for name in defined if name in bench and name not in package} == BENCH_ONLY

"""The library holds only what the program runs: every top-level function
and class in src/inghamlab is referenced by the code of src/ or
perfbench/ outside its own definition.  Reference code that only tests
call lives in tests/_oracles.py."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "inghamlab"


def _program_files():
    """The program's sources: src/ and perfbench/, without test files."""
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _docstrings(tree) -> set:
    """ids of the docstring constants of the module, its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _references(node, docstrings) -> Counter:
    """Identifiers, attribute names and string constants under node.
    String constants count because the benchmark tracer names the
    attributes it wraps as strings; docstrings do not, and comments are
    not in the tree."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            names[sub.value] += 1
    return names


def _exempt(module: str, name: str) -> bool:
    # cli._RUNNERS finds each run_<subcommand> through globals().
    return (name.startswith("__") and name.endswith("__")) or \
        (module == "cli" and name.startswith("run_"))


def test_every_library_definition_is_used_by_the_program():
    used = Counter()
    definitions = []
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstrings(tree)
        used += _references(tree, docstrings)
        if path.parent != LIBRARY:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not _exempt(path.stem, node.name):
                own = _references(node, docstrings)[node.name]
                definitions.append((f"{path.stem}.{node.name}", node.name, own))
    assert definitions
    unused = [where for where, name, own in definitions if used[name] <= own]
    assert unused == [], f"defined in src/ but used by no program code: {unused}"

"""The library holds only what the program runs: every top-level function
and class in src/inghamlab is referenced by the code of src/ or
perfbench/ outside its own definition, and every parameter with a
default is set by some call in that code.  Reference code that only
tests call lives in tests/_oracles.py."""

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


def _defaulted(func, method: bool) -> list:
    """(name, position or None) of each parameter of func that has a
    default; position counts the arguments of a call, so a method's
    self or cls is not counted."""
    args = func.args
    positional = args.posonlyargs + args.args
    offset = 1 if method else 0
    out = [(a.arg, i - offset)
           for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, name: str, position) -> bool:
    """Whether call gives the parameter: by keyword, by position, or
    through a * or ** argument."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_library_option_is_set_by_the_program():
    # The console entry point takes argv=None from the interpreter; tests
    # pass argv.
    exempt = {("cli.main", "argv")}
    calls = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(callee, []).append(node)
    options = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in f.decorator_list)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, position in _defaulted(func, id(func) in methods):
                if (f"{path.stem}.{func.name}", name) not in exempt:
                    options.append((func.name, name, position))
    assert options
    unset = [f"{func}.{name}" for func, name, position in options
             if not any(_passes(call, name, position)
                        for call in calls.get(func, ()))]
    assert unset == [], f"options that no program call sets: {unset}"

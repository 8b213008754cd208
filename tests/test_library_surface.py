"""The library holds only what the program runs: every top-level function
and class in src/inghamlab, and every method and property of its
classes, is referenced by the code of src/ or perfbench/ outside its own
definition, and every parameter with a default is set by some call in
that code but not by every one, so each default has one home.
Reference code that only tests call lives in tests/_oracles.py.  And
importing every module of the package leaves scipy.integrate unloaded."""

import ast
import os
import pathlib
import subprocess
import sys
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


def _references(node, docstrings, bare_names: bool) -> Counter:
    """Attribute names and string constants under node, and identifiers
    if bare_names.  String constants count because the benchmark tracer
    names the attributes it wraps as strings; docstrings do not, and
    comments are not in the tree."""
    names = Counter()
    for sub in ast.walk(node):
        if bare_names and isinstance(sub, ast.Name):
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


def _unused(definitions_of, bare_names: bool) -> list:
    """Where each definition that definitions_of(module, tree) yields as
    (where, node) is referenced by no program code outside itself: the
    program's references to its name are no more than its own.  Bare
    identifiers count as references only if bare_names."""
    used = Counter()
    definitions = []
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstrings(tree)
        used += _references(tree, docstrings, bare_names)
        if path.parent != LIBRARY:
            continue
        for where, node in definitions_of(path.stem, tree):
            own = _references(node, docstrings, bare_names)[node.name]
            definitions.append((where, node.name, own))
    assert definitions
    return [where for where, name, own in definitions if used[name] <= own]


def _top_level(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not _exempt(module, node.name):
            yield f"{module}.{node.name}", node


def _members(module, tree):
    """Methods and properties of every class, dunders exempt."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not _exempt(module, node.name):
                    yield f"{module}.{cls.name}.{node.name}", node


def test_every_library_definition_is_used_by_the_program():
    unused = _unused(_top_level, bare_names=True)
    assert unused == [], f"defined in src/ but used by no program code: {unused}"


def test_every_class_member_is_used_by_the_program():
    # A method or property is reached as obj.name or through a string
    # (cli._pick's field names), never as a bare identifier, so a local
    # variable of the same name does not count as a use.  An attribute of
    # another object with the same name (np.trace) still does.
    unused = _unused(_members, bare_names=False)
    assert unused == [], f"members that no program code uses: {unused}"


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


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name


def _field_defaults(cls) -> list:
    """(name, position) of each __init__ field of a dataclass that has a
    default: a plain value, or field(default=...) or
    field(default_factory=...).  field(init=False) is no parameter."""
    if not any(isinstance(d, ast.Name) and d.id == "dataclass"
               or _is_call_to(d, "dataclass") for d in cls.decorator_list):
        return []
    out, position = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        if _is_call_to(stmt.value, "field"):
            keywords = {kw.arg: kw.value for kw in stmt.value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = "default" in keywords or "default_factory" in keywords
        else:
            default = stmt.value is not None
        if default:
            out.append((stmt.target.id, position))
        position += 1
    return out


def _options() -> list:
    """(where, callee, name, position) of every parameter with a default
    in src/inghamlab: of functions and methods, and the __init__ fields
    of dataclasses, whose callee is the class."""
    options = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name, position in _field_defaults(cls):
                    options.append((f"{path.stem}.{cls.name}.{name}",
                                    cls.name, name, position))
                for f in cls.body:
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner[id(f)] = cls.name
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(func))
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in func.decorator_list)
            where = ".".join(filter(None, (path.stem, cls, func.name)))
            for name, position in _defaulted(func, method):
                options.append((f"{where}.{name}", func.name, name, position))
    # The console entry point takes argv=None from the interpreter; tests
    # pass argv.
    return [o for o in options if o[0] != "cli.main.argv"]


def _program_calls() -> dict:
    """Every call in the program code, by the name it calls: a bare name
    or the last attribute."""
    calls = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(callee, []).append(node)
    return calls


def _may_pass(call, name: str, position) -> bool:
    """Whether call may give the parameter: by keyword, by position, or
    through a * or ** argument."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _surely_passes(call, name: str, position) -> bool:
    """Whether call gives the parameter by keyword, or by position in a
    call with no * or ** argument, which might leave it out."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    if any(kw.arg is None for kw in call.keywords) \
            or any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return position is not None and len(call.args) > position


def test_every_library_option_is_set_by_the_program():
    calls = _program_calls()
    options = _options()
    assert options
    unset = [where for where, callee, name, position in options
             if not any(_may_pass(call, name, position)
                        for call in calls.get(callee, ()))]
    assert unset == [], f"options that no program call sets: {unset}"


def test_no_library_default_is_set_by_every_program_call():
    # A default that every caller overrides is a second copy of the
    # caller's value; the parameter should be required instead.
    calls = _program_calls()
    options = _options()
    assert options
    shadowed = [where for where, callee, name, position in options
                if calls.get(callee)
                and all(_surely_passes(call, name, position)
                        for call in calls[callee])]
    assert shadowed == [], \
        f"defaults that every program call overrides: {shadowed}"


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds about 0.13 s to every process start; no module
    # of the package may pull it in again.
    code = ("import sys, inghamlab\n"
            "for name in inghamlab._SUBMODULES:\n"
            "    getattr(inghamlab, name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy.integrate' or m.startswith('scipy.integrate.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"

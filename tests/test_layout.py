"""What the program and the test oracles may hold.

The program keeps only what its commands, its two decision procedures, the
benchmark and README's library API reach; reference code lives next to the
tests that use it. The brute-force oracles stay independent of the library,
and no module imports a name it never reads.
"""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import syncsynth

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(syncsynth.__file__).resolve().parent

# the roots besides README's library API: the console script and its command
# table, the two decision procedures, and what `decidebench/` uses of the
# program (its layer names are added from `decidebench/layers.py`)
ROOTS = {
    "main",
    "HANDLERS",
    "decide",
    "decide_recognizable",
    "loads",
    "dumps",
    "from_dict",
    "PipelineConfig",
    "inp",
}


def library_api() -> list:
    """(module, name) of every entry of README's "Library API" list."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)\.(\w+)`", section, re.MULTILINE)


def benchmark_layers() -> set:
    spec = importlib.util.spec_from_file_location("decidebench_layers", REPO / "decidebench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return set(layers.LAYERS)


def _reads(node, aliases: dict) -> set:
    """The names a definition reads, as names or attributes, with import
    aliases resolved."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return {aliases.get(n, n) for n in names}


def _methods(node: ast.ClassDef) -> list:
    """The methods of a class that are walked on their own: all but dunders,
    which the language calls without reading their names."""
    return [
        item
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name)
    ]


def _class_reads(node: ast.ClassDef, aliases: dict) -> set:
    """What a class reads outside its walked methods: bases, decorators,
    fields and dunders."""
    methods = _methods(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    parts += [item for item in node.body if item not in methods]
    return set().union(*(_reads(part, aliases) for part in parts))


def definitions() -> dict:
    """Definitions of the package by name: a list of (owner, node, the names
    the definition reads) per name, where the owner is the module, or
    module.Class for a method. Top-level functions, classes and module-level
    assignments count, so a table such as cli.HANDLERS passes reads on; so
    does each method but dunders, which belong to their class's body."""
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            a.asname: a.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append((path.stem, node, _class_reads(node, aliases)))
                for method in _methods(node):
                    owner = f"{path.stem}.{node.name}"
                    found.setdefault(method.name, []).append((owner, method, _reads(method, aliases)))
                continue
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append((path.stem, node, _reads(node, aliases)))
    return found


def test_every_definition_is_reached_or_library_api():
    """A name-based walk: a definition is reached when a reached definition
    reads its name, as a name or as an attribute. A reached class reaches its
    bases, decorators, fields and dunders, but not its other methods: each is
    reached when reached code reads its name. Every top-level function or
    class and every method of `src/syncsynth` is reached from the roots, or
    README lists it as library API."""
    defs = definitions()
    api = library_api()
    stale = [f"{m}.{n}" for m, n in api if m not in {mod for mod, _, _ in defs.get(n, ())}]
    assert not stale, f"README's library API names no such definition: {stale}"
    reached: set = set()
    stack = list(ROOTS | benchmark_layers() | {n for _, n in api})
    while stack:
        name = stack.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, _, reads in defs[name]:
            stack.extend(reads)
    unreached = sorted(
        f"{owner}.{name}"
        for name, entries in defs.items()
        for owner, node, _ in entries
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name not in reached
    )
    assert not unreached, unreached


def test_readme_names_resolve():
    """Every backticked `module.name` in README whose module is one of the
    package's names an attribute of that module, so a removed or renamed
    definition cannot stay in the prose."""
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    text = (REPO / "README.md").read_text(encoding="utf-8")
    named = sorted({(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", text) if m in modules})
    assert named
    stale = [
        f"{m}.{n}" for m, n in named if not hasattr(importlib.import_module(f"syncsynth.{m}"), n)
    ]
    assert not stale, stale


def test_oracles_import_nothing_of_the_library_but_letters():
    """tests/oracles.py codes its checks independently of the library's
    algorithms: of syncsynth it may import only the letters, and no test
    module (which may import the rest)."""
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()  # modules, with "." opening a relative one
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "syncsynth":
            imported |= {f"syncsynth.{a.name}" for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    foreign = sorted(
        m for m in imported if m.startswith((".", "syncsynth")) and m != "syncsynth.letters"
    )
    assert not foreign, foreign


def unused_imports(path: Path) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_unused_imports():
    """Every imported name is read, in the package (whose `__init__` imports
    only to re-export) and in the tests."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((REPO / "tests").glob("*.py"))
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert not unused, unused


def test_no_module_imports_a_private_name():
    """A module of the package reads only the public names of the others,
    whether it imports the name or reads it off an imported module; the
    tests may import private names."""
    private = lambda name: name.startswith("_") and not name.startswith("__")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # package modules bound by `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("syncsynth")):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if private(a.name)]
                if node.module in (None, "syncsynth"):
                    modules |= {a.asname or a.name for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and private(node.attr):
                    found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not found, found


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_knobs():
    """The program reads no environment variable: a setting is a flag, a
    config field or a module constant, never `os.environ` or `os.getenv`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "os" else set()
            else:
                continue
            if names & ENVIRONMENT_READS:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


UNSET_DEFAULTS_ALLOWED = {
    # the console script calls main() and only the tests pass argv
    ("main", "argv"),
    # the `decide` command calls it through its `procedure` variable
    ("decide_recognizable", "cfg"),
}


def _calls(roots: list) -> list:
    """Every call in the Python files under `roots`, as (called name, call);
    the name is the function's, or the attribute's for a method call."""
    calls = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    calls.append((func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), node))
    return calls


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether a call passes parameter `name` by keyword, or by position when
    `position` (counted among the call's own arguments) is not None; a
    `*args` or `**kwargs` argument may pass it either way."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or i == position for i, arg in enumerate(call.args)
    )


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default that no call in `src/syncsynth` or `decidebench/` overrides
    is a knob nobody turns: the value belongs inside the function. A method
    binds `self` or `cls` before the call's own arguments."""
    calls = _calls([PACKAGE, REPO / "decidebench"])
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            bound = 1 if params[:1] in (["self"], ["cls"]) else 0
            defaulted = [(p, i - bound) for i, p in enumerate(params) if i >= len(params) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, position in defaulted:
                if (node.name, param) in UNSET_DEFAULTS_ALLOWED:
                    continue
                if not any(called == node.name and _sets(call, param, position) for called, call in calls):
                    unset.append(f"{path.name}:{node.lineno} {node.name}({param}=)")
    assert not unset, unset

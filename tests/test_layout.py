"""No ``src/`` definition is reached by the tests alone.

Every top-level function and class of ``src/cqmac/*.py``, and every public
method, must be referenced outside the tests: by another ``src/`` module, by
a file under ``scripts/`` or ``perfbench/``, or by another statement of its
own module. A top-level name ``f`` of module ``m`` is referenced by

- an import of ``f`` from ``m`` (``from .m import f``, ``from cqmac.m import f``);
- a load of ``f`` as an attribute of ``m`` (``m.f`` after ``from . import m``);
- a load of the bare ``f`` in ``m``, outside ``f``'s own definition and outside
  any function or class that binds a name ``f`` of its own.

Strings in perfbench count only as the attribute paths of
``tracer.FUNCTIONS``, which the benchmark's tracer resolves. ``__init__.py``
re-exports do not count. Attributes cannot be resolved statically, so a
public method counts as referenced when its name appears in another ``src/``
statement, in another member of its class, or in the code of a script or
perfbench file. What stays without a caller is listed below with its reason,
and each reason is checked.

The layout also keeps one Kronecker product, ``qmatrix.tensor``: no ``src/``
module calls ``np.kron``; and one level-l rating route, ``regions.level_kernel``:
no ``src/`` module but ``regions`` calls ``blocked_tensor_power``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cqmac"

PERFBENCH = "read by perfbench"
README = "named in the README"

ALLOWED = {
    "channels.tensor_power": PERFBENCH,
    "entropic.effective_cqq_state": PERFBENCH,
    "codesim.EtTransmissionCode.decoder": PERFBENCH,
    "regions.compound_rect": PERFBENCH,
    "regions.compound_rect_powered": PERFBENCH,
    "qmatrix.maximally_entangled": README,
    "channels.CqChannel.from_vectors": README,
    "regions.fatten": README,
    "entropic.coherent_information_b_cx": README,
    "channels.erasure_channel": README,
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` names, as a variable or as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _bound_here(scope) -> set[str]:
    """The names a function, lambda or class binds in its own scope."""
    names, declared = set(), set()
    if not isinstance(scope, ast.ClassDef):
        a = scope.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names |= {arg.arg for arg in params if arg}
    stack = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)  # its body is its own scope
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _module_loads(statement: ast.stmt) -> set[str]:
    """The bare names a top-level statement loads from its module's scope."""
    found = set()

    def visit(node, shadowed):
        if isinstance(node, _SCOPES):
            shadowed = shadowed | _bound_here(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(statement, frozenset())
    return found


def _imported(tree: ast.Module, modules, in_package: bool = False) -> set[str]:
    """``module.name`` of every cqmac definition the file imports or loads as a
    module attribute, for ``modules`` the stems of ``src/cqmac``; relative
    imports resolve only ``in_package``."""
    found, aliases = set(), {}  # local name -> module stem, "" for the package

    def stem(level, module):
        if level:
            return (module or "") if in_package and level == 1 else None
        if module == "cqmac" or (module or "").startswith("cqmac."):
            return module[len("cqmac."):]
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and stem(node.level, node.module) is not None:
            owner = stem(node.level, node.module)
            for a in node.names:
                if owner == "" and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif owner in modules:
                    found.add(f"{owner}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                owner = stem(0, a.name)
                if owner is not None:
                    aliases[a.asname or "cqmac"] = owner if a.asname else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            if isinstance(value, ast.Name) and aliases.get(value.id) in modules:
                found.add(f"{aliases[value.id]}.{node.attr}")
            elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                  and aliases.get(value.value.id) == "" and value.attr in modules):
                found.add(f"{value.attr}.{node.attr}")
    return found


def _tracer_paths() -> set[str]:
    """``module.attr.path`` of each entry of perfbench's ``tracer.FUNCTIONS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]
    ]
    return {
        f"{module[len('cqmac.'):]}.{path}"
        for _, module, path in ast.literal_eval(table)
        if module.startswith("cqmac.")
    }


def _modules() -> dict[str, ast.Module]:
    files = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    return {f.stem: ast.parse(f.read_text()) for f in files}


def _definitions(modules):
    """(qualified name, node, own module, enclosing class or None) of every
    top-level definition and public method."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node, module, None
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member, module, node


def _external(modules, patterns):
    """(resolved ``module.name`` references, identifiers in code) of the files
    matching ``patterns`` and of the tracer's ``FUNCTIONS`` paths."""
    files = [f for pattern in patterns for f in sorted(ROOT.glob(pattern))]
    trees = [ast.parse(f.read_text()) for f in files]
    paths = _tracer_paths()
    resolved = {".".join(p.split(".")[:2]) for p in paths}
    resolved = resolved.union(*(_imported(t, modules) for t in trees))
    named = {part for p in paths for part in p.split(".")[2:]}
    named = named.union(*(_names(t) for t in trees))
    return resolved, named


def _referenced(modules, patterns) -> set[str]:
    """Qualified names of the definitions referenced outside the tests, by
    ``src/`` and by the files matching ``patterns``."""
    resolved, named = _external(modules, patterns)
    for module, tree in modules.items():
        resolved |= {r for r in _imported(tree, modules, True) if not r.startswith(f"{module}.")}
    loads = {id(s): (m, _module_loads(s)) for m, tree in modules.items() for s in tree.body}
    names = {id(s): _names(s) for tree in modules.values() for s in tree.body}
    found = set()
    for qual, node, module, cls in _definitions(modules):
        if cls is None:
            here = any(m == module and node.name in got and key != id(node)
                       for key, (m, got) in loads.items())
            hit = here or qual in resolved
        else:
            elsewhere = any(node.name in got for key, got in names.items() if key != id(cls))
            hit = elsewhere or node.name in named or any(
                node.name in _names(s) for s in cls.body if s is not node
            )
        if hit:
            found.add(qual)
    return found


def test_every_definition_has_a_caller_outside_the_tests():
    modules = _modules()
    referenced = _referenced(modules, ["scripts/*.py", "perfbench/*.py"])
    unused = [
        qual for qual, *_ in _definitions(modules) if qual not in referenced and qual not in ALLOWED
    ]
    assert unused == [], f"reached by the tests alone: {unused}"


def test_allowed_entries_exist_and_their_reasons_hold():
    modules = _modules()
    defined = {qual for qual, *_ in _definitions(modules)}
    assert sorted(set(ALLOWED) - defined) == []
    resolved, named = _external(modules, ["perfbench/*.py"])
    # code spans and fenced blocks
    quoted = " ".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))
    for qual, reason in ALLOWED.items():
        short = qual.rsplit(".", 1)[-1]
        if reason == PERFBENCH:
            assert (qual in resolved) if qual.count(".") == 1 else (short in named), qual
        else:
            assert reason == README and re.search(rf"\b{short}\b", quoted), qual


def test_one_kronecker_product():
    """No ``src/`` module calls ``np.kron`` (or ``numpy.kron``)."""
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "kron"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert calls == []


def test_one_level_route():
    """No ``src/`` module but ``regions`` calls ``blocked_tensor_power``."""
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items() if module != "regions"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "blocked_tensor_power" in _names(node.func)
    ]
    assert calls == []


def test_scope_rule():
    """A bare load counts outside scopes that bind the name, and only there."""
    tree = ast.parse(
        "def scale(x): return x\n"
        "def shadowed(scale): return scale\n"
        "def local(): scale = 2; return scale\n"
        "class Holder:\n    scale = 1\n    double = scale * 2\n"
        "def free(): return scale(1)\n"
    )
    loads = [_module_loads(s) for s in tree.body]
    assert ["scale" in got for got in loads] == [False, False, False, False, True]
    imports = ast.parse("from . import regions\nfrom .qmatrix import tensor\nregions.fatten\n")
    assert _imported(imports, {"regions", "qmatrix"}, True) == {"regions.fatten", "qmatrix.tensor"}
    assert _imported(imports, {"regions", "qmatrix"}) == set()

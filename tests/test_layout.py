"""No ``src/`` definition is reached by the tests alone.

Every top-level function and class of ``src/cqmac/*.py``, and every public
method, must be referenced by another ``src/`` definition or module-level
statement, by a file under ``scripts/`` or by a ``perfbench/*.py`` file. The
benchmark's tracer names functions in string constants, so identifiers in the
strings of those files count as references. ``__init__.py`` re-exports do
not count. What stays without a caller is listed below with its reason, and
each checkable reason is checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cqmac"

PERFBENCH = "read by perfbench"
README = "named in the README"
UNDECIDED = "left to ROADMAP items 11 and 13: library feature or test oracle"

ALLOWED = {
    "channels.tensor_power": PERFBENCH,
    "entropic.effective_cqq_state": PERFBENCH,
    "codesim.EtTransmissionCode.decoder": PERFBENCH,
    "regions.compound_rect": PERFBENCH,
    "regions.compound_rect_powered": PERFBENCH,
    "qmatrix.maximally_entangled": README,
    "channels.CqChannel.from_vectors": README,
    "regions.fatten": README,
    "entropic.coherent_information_b_cx": UNDECIDED,
    "channels.erasure_channel": UNDECIDED,
    "channels.diamond_distance_bounds": UNDECIDED,
    "qmatrix.PureState.density": UNDECIDED,
}


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return found


def _modules() -> dict[str, ast.Module]:
    files = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    return {f.stem: ast.parse(f.read_text()) for f in files}


def _definitions(modules):
    """(qualified name, short name, whether another statement names it)."""
    # how many src top-level statements name each identifier
    per_statement = {id(s): _names(s) for tree in modules.values() for s in tree.body}
    total = Counter(name for names in per_statement.values() for name in names)
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = per_statement[id(node)]
            yield f"{module}.{node.name}", node.name, total[node.name] > (node.name in own)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        name = member.name
                        elsewhere = total[name] > (name in own) or any(
                            name in _names(s) for s in node.body if s is not member
                        )
                        yield f"{module}.{node.name}.{name}", name, elsewhere


def _external_names(*globs) -> set[str]:
    files = [f for pattern in globs for f in sorted(ROOT.glob(pattern))]
    return set().union(*(_names(ast.parse(f.read_text()), strings=True) for f in files))


def test_every_definition_has_a_caller_outside_the_tests():
    external = _external_names("scripts/*.py", "perfbench/*.py")
    unused = [
        qual
        for qual, short, named in _definitions(_modules())
        if not named and short not in external and qual not in ALLOWED
    ]
    assert unused == [], f"reached by the tests alone: {unused}"


def test_allowed_entries_exist_and_their_reasons_hold():
    defined = {qual for qual, _, _ in _definitions(_modules())}
    assert sorted(set(ALLOWED) - defined) == []
    perfbench = _external_names("perfbench/*.py")
    readme = (ROOT / "README.md").read_text()
    for qual, reason in ALLOWED.items():
        short = qual.rsplit(".", 1)[-1]
        if reason == PERFBENCH:
            assert short in perfbench, qual
        elif reason == README:
            assert re.search(rf"\b{short}", readme), qual

"""Nothing in ``src/`` exists only for the tests: every top-level function
and class of the package is read by ``src/``, ``bench/`` or ``scripts/``
outside its own body.  An oracle that only the tests use belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "etacong"

# congruences.progression_identity_check is an oracle that only the tests
# call.  The benchmark's tracer pins its binding congruences.
# eta_integer_power_mod (bench/test_bench.py::test_every_binding_is_patched)
# until a change to the benchmark drops that binding and moves the oracle
# to tests/oracles.py.
ALLOWED = {("congruences", "progression_identity_check")}


def _top_level(tree):
    return [node for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _reads(node, skip=None):
    """The names and attribute names under node, less ``skip``: a name
    read by its own definition does not count."""
    for sub in ast.walk(node):
        name = (sub.id if isinstance(sub, ast.Name) else
                sub.attr if isinstance(sub, ast.Attribute) else None)
        if name is not None and name != skip:
            yield name


def _names_read():
    files = sorted(PACKAGE.glob("*.py")) + sorted(
        (ROOT / "bench").rglob("*.py")) + sorted(
        (ROOT / "scripts").rglob("*.py"))
    read = set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        defined = {id(node): node.name for node in _top_level(tree)}
        for node in tree.body:
            read.update(_reads(node, defined.get(id(node))))
    return read


def test_every_package_definition_has_a_reader_outside_the_tests():
    read = _names_read()
    unread = sorted(
        (path.stem, node.name) for path in sorted(PACKAGE.glob("*.py"))
        for node in _top_level(ast.parse(path.read_text()))
        if node.name not in read)
    assert [entry for entry in unread if entry not in ALLOWED] == []
    assert set(unread) == ALLOWED  # an entry that gains a reader goes

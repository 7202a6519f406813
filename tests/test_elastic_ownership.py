"""Ownership gate for the elastic round.

:class:`~repro.core.elastic.ElasticAveragingFramework` owns the round's
state and :class:`~repro.core.messages.MessageQueue` its envelopes.  No
other module in ``src/repro`` reads or writes an underscore attribute of
either class, or imports a private name of their modules: checkpoints
and the chaos harness go through ``round_state`` / ``load_round_state``,
``MessageQueue.state`` / ``load_state`` and ``recenter``.

The scan reads the stdlib ``ast``, like ``tests/test_parameter_layer.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: owning module -> the class whose private members it alone may touch
OWNERS = {
    SRC / "core" / "elastic.py": "ElasticAveragingFramework",
    SRC / "core" / "messages.py": "MessageQueue",
}
OWNER_MODULES = ("repro.core.elastic", "repro.core.messages")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def private_members(tree, cls: str) -> set[str]:
    """Underscore methods and ``self._x`` attributes of class ``cls``."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    names = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(child.name):
            names.add(child.name)
        elif isinstance(child, ast.Attribute) and _is_self(child.value) and _private(child.attr):
            names.add(child.attr)
    return names


def foreign_uses(tree, private: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every non-``self`` access to a name in ``private``
    and every private name imported from an owning module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in private and not _is_self(node.value):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module in OWNER_MODULES:
            found.extend((node.lineno, a.name) for a in node.names if _private(a.name))
    return found


def _all_private() -> set[str]:
    names = set()
    for path, cls in OWNERS.items():
        names |= private_members(ast.parse(path.read_text(), str(path)), cls)
    return names


def test_round_state_is_touched_only_by_its_owners():
    private = _all_private()
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        if path in OWNERS:
            continue
        tree = ast.parse(path.read_text(), str(path))
        stray.extend(
            f"{path.relative_to(SRC)}:{line}: {name}"
            for line, name in sorted(foreign_uses(tree, private))
        )
    assert not stray, f"private elastic/queue state used outside its owners: {stray}"


def test_the_gate_sees_the_round_state():
    """The collected names cover the accumulator, the membership hooks
    and the queue's envelopes, so the gate above cannot pass vacuously."""
    assert {"_acc", "_received", "_alpha_auto", "_discard_round", "_split",
            "_join", "_pending", "_now"} <= _all_private()


def test_scanner_flags_reads_writes_and_imports():
    tree = ast.parse(
        "from repro.core.messages import MessageQueue, _Envelope\n"
        "def f(framework):\n"
        "    framework._received = 0\n"
        "    return framework.queue._pending, framework.alpha\n"
        "class A:\n"
        "    def g(self):\n"
        "        return self._received\n"
    )
    assert sorted(foreign_uses(tree, {"_received", "_pending"})) == [
        (1, "_Envelope"), (3, "_received"), (4, "_pending"),
    ]

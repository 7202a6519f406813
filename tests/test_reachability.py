"""Reachability gate: every definition in ``src/repro`` has a caller.

A module-level function or class, or a non-dunder method of a
module-level class, stays in the library only if one of these holds:

* ``referenced`` — its name is used in ``src/repro`` outside its own
  body, or anywhere in ``benchmarks/``, ``scripts/`` or ``examples/``;
* ``reference`` — it is a reference implementation that tests compare
  the live code against;
* ``verification`` — it is a verification or safety helper;
* ``roadmap`` — a named ROADMAP item needs it.

The first kind is checked here by scanning the stdlib ``ast`` for
``ast.Name`` and ``ast.Attribute`` nodes; the other three are the
:data:`ALLOWLIST` below, one reason per entry.  The scan matches by bare
name, so it is conservative: a definition whose name is reused anywhere
counts as reached, except as an attribute of a module imported from
outside ``repro``.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "scripts", "examples")
REASON_KINDS = ("reference", "verification", "roadmap")

#: qualified name -> "<kind>: why"; kind is one of REASON_KINDS
ALLOWLIST = {
    "repro.graph.partitioner.partition_uniform":
        "reference: the equal-count split the planner and pipeline tests "
        "compare partitions and runners against",
    "repro.graph.partitioner.balanced_bottleneck":
        "reference: the scalar stage-time arithmetic the placement search's "
        "batched bottleneck must equal bit for bit",
    "repro.graph.partitioner.stage_memory_bytes":
        "reference: per-stage memory the partition DP's cap tests check "
        "every plan against",
    "repro.optim.easgd.EASGD":
        "reference: the coupled EASGD optimizer (paper §3.1) the elastic "
        "framework is compared with",
    "repro.optim.easgd.EASGD.local_step":
        "reference: EASGD's worker step, part of the §3.1 baseline",
    "repro.sim.collectives.ring_allreduce":
        "reference: step-accurate ring all-reduce that validates the "
        "data-parallel runner's all-reduce approximation",
    "repro.sim.collectives.ring_allreduce_lower_bound":
        "reference: analytic bound the ring all-reduce simulation is "
        "checked against",
    "repro.tensor.functional.sigmoid":
        "reference: composed gate activation the fused lstm_cell is "
        "compared with bitwise",
    "repro.tensor.gradcheck.gradcheck":
        "verification: central-difference check of every autograd op",
    "repro.tensor.functional.assert_preserves_dtype":
        "verification: dtype-preservation check for the float64 paths",
    "repro.verify.invariants.assert_schedule_valid":
        "verification: raising form of the schedule invariant checker",
    "repro.resilience.recovery.RejoinPipeline":
        "roadmap: item 2's non-finite quarantine ladder rejoins "
        "quarantined pipelines through it",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def foreign_modules(tree) -> set[str]:
    """Names ``tree`` binds with ``import`` to a module outside ``repro``
    (``import numpy as np`` binds ``np``, ``import os.path`` binds ``os``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def collect_references(tree, path, references) -> None:
    """Append (file, line) of every name and attribute use in ``tree``,
    except attributes of a module it imports from outside ``repro``
    (``np.clip`` does not reach ``Tensor.clip``, nor does
    ``tracemalloc.reset_peak`` reach a ``reset_peak`` of ours)."""
    foreign = foreign_modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            references[node.id].append((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in foreign:
                continue
            references[node.attr].append((path, node.lineno))


def scan() -> tuple[dict, dict]:
    """(definitions, references) over the library and its callers.

    definitions: qualified name -> (bare name, file, first line, last line)
    references:  bare name -> [(file, line), ...]
    """
    definitions: dict[str, tuple[str, pathlib.Path, int, int]] = {}
    references: dict[str, list[tuple[pathlib.Path, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        collect_references(tree, path, references)
        module = _module_name(path)
        for node in tree.body:
            if not _is_def(node):
                continue
            definitions[f"{module}.{node.name}"] = (
                node.name, path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if _is_def(sub) and not _is_dunder(sub.name):
                        definitions[f"{module}.{node.name}.{sub.name}"] = (
                            sub.name, path, sub.lineno, sub.end_lineno)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            collect_references(ast.parse(path.read_text(), str(path)), path, references)
    return definitions, references


def unreferenced(definitions, references) -> set[str]:
    """Definitions with no reference outside their own body."""
    dead = set()
    for qualname, (name, path, first, last) in definitions.items():
        if not any(
            ref_path != path or not first <= line <= last
            for ref_path, line in references.get(name, ())
        ):
            dead.add(qualname)
    return dead


DEFINITIONS, REFERENCES = scan()
UNREFERENCED = unreferenced(DEFINITIONS, REFERENCES)


def test_every_definition_is_reached_or_allowlisted():
    missing = sorted(UNREFERENCED - set(ALLOWLIST))
    assert not missing, (
        "definitions nothing outside tests/ reaches; delete them, or add an "
        f"ALLOWLIST entry with a {REASON_KINDS} reason: {missing}"
    )


def test_allowlist_reasons_name_a_rule_kind():
    bad = {
        name: reason for name, reason in ALLOWLIST.items()
        if reason.split(":", 1)[0] not in REASON_KINDS
        or not reason.split(":", 1)[-1].strip()
    }
    assert not bad


def test_allowlist_has_no_stale_entries():
    """Every entry still exists and is still unreferenced, so the list
    shrinks as soon as an entry gains a real caller or is deleted."""
    assert sorted(set(ALLOWLIST) - set(DEFINITIONS)) == []
    assert sorted(set(ALLOWLIST) - UNREFERENCED) == []


def test_scan_sees_methods_and_own_body_references():
    """Guards the scanner itself: a definition only its own body names
    is unreferenced, and a method another module calls is not."""
    assert "repro.core.elastic.ElasticAveragingFramework.resize" in DEFINITIONS
    assert "repro.core.elastic.ElasticAveragingFramework.resize" not in UNREFERENCED
    path = SRC / "lonely.py"
    refs = defaultdict(list)
    collect_references(ast.parse("def lonely():\n    return lonely()\n"), path, refs)
    assert unreferenced({"repro.lonely.lonely": ("lonely", path, 1, 2)}, refs) == {
        "repro.lonely.lonely"
    }


def test_scan_ignores_attributes_of_foreign_modules():
    """An attribute of a module imported from outside ``repro`` is not a
    use of our name; an attribute of a ``repro`` module or of a plain
    object still is."""
    refs = defaultdict(list)
    source = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "import repro.sim as sim\n"
        "tracemalloc.reset_peak()\n"
        "np.clip(x)\n"
        "sim.make_cluster()\n"
        "ledger.publish()\n"
    )
    collect_references(ast.parse(source), SRC / "caller.py", refs)
    assert "reset_peak" not in refs and "clip" not in refs
    assert "make_cluster" in refs and "publish" in refs

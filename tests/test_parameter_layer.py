"""Structure gate for the parameter layer.

* Parameter data is written (an assignment to ``<expr>.data``) only by
  :data:`WRITERS`: the optimizer step, the state-dict load and the
  elastic dilution.  :data:`EXCEPTIONS` lists the code outside the
  training path that may write too, one reason each.
* Nothing writes *into* a ``.data`` array (``<expr>.data[...] = ...``
  or ``out=<expr>.data``): writers rebind, so a backward closure that
  bound a parameter's array at forward still holds the forward-time
  weights (``tests/test_autograd_rebind.py``).
* ``Module`` is the only class in ``repro.nn``, ``repro.models`` and
  ``repro.core`` that walks, saves or loads parameters, and no
  optimizer carries its own step loop (ASGD only counts steps around it).
* The end-to-end tracer wraps every layer boundary exactly once.

The scan reads the stdlib ``ast``, like ``tests/test_reachability.py``.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: the functions that write parameter data on the training path
WRITERS = {
    "repro.optim.optimizer.Optimizer.step",
    "repro.nn.module.Module.load_state_dict",
    "repro.core.elastic.ElasticAveragingFramework.dilute",
}

#: function or module -> why it may assign ``.data`` too
EXCEPTIONS = {
    "repro.tensor.tensor.Tensor.__init__":
        "a tensor binds its own storage on construction",
    "repro.tensor.gradcheck":
        "the finite-difference check perturbs inputs in place",
    "repro.verify.oracle":
        "the independent reference trainers keep their own update code",
    "repro.optim.easgd":
        "the coupled EASGD baseline (paper section 3.1) is a reference",
}

#: the parameter-walk methods only Module may define
PARAMETER_WALK = ("named_parameters", "state_dict", "load_state_dict")


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _targets(node):
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            yield target


def _is_data(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _into_data(node) -> bool:
    """``<expr>.data[...]``, under any number of subscripts."""
    if not isinstance(node, ast.Subscript):
        return False
    while isinstance(node, ast.Subscript):
        node = node.value
    return _is_data(node)


def _find(tree, module: str, match) -> list[tuple[str, int]]:
    """(qualified enclosing definition, line) of every node ``match`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if match(child):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, module)
    return found


def data_writes(tree, module: str) -> list[tuple[str, int]]:
    """Every ``<expr>.data`` store (a rebind)."""
    return _find(tree, module, lambda node: any(_is_data(t) for t in _targets(node)))


def in_place_writes(tree, module: str) -> list[tuple[str, int]]:
    """Every store into a ``.data`` array: ``<expr>.data[...] = ...`` (or
    ``op=``) and an ``out=<expr>.data`` keyword argument."""

    def match(node) -> bool:
        if isinstance(node, ast.Call):
            return any(
                kw.arg == "out" and (_is_data(kw.value) or _into_data(kw.value))
                for kw in node.keywords
            )
        return any(_into_data(t) for t in _targets(node))

    return _find(tree, module, match)


def scan(finder=data_writes) -> list[tuple[str, int]]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        out.extend(finder(ast.parse(path.read_text(), str(path)), _module_name(path)))
    return out


def _excepted(scope: str) -> bool:
    return any(scope == name or scope.startswith(name + ".") for name in EXCEPTIONS)


def test_parameter_data_has_three_writers():
    writes = scan()
    stray = sorted(
        f"{scope}:{line}" for scope, line in writes
        if scope not in WRITERS and not _excepted(scope)
    )
    assert not stray, f"parameter data written outside {sorted(WRITERS)}: {stray}"
    assert {scope for scope, _ in writes} >= WRITERS


def test_exceptions_are_still_writers():
    scopes = [scope for scope, _ in scan()]
    for name in EXCEPTIONS:
        assert any(s == name or s.startswith(name + ".") for s in scopes), name


def test_scanner_sees_nested_and_tuple_stores():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, p, q):\n"
        "        p.data, q.grad = 1, 2\n"
        "        def g():\n"
        "            p.data += 1\n"
        "x.data = 0\n"
    )
    assert data_writes(tree, "m") == [("m.A.f", 3), ("m.A.f.g", 5), ("m", 6)]


def test_nothing_writes_into_parameter_data():
    assert not scan(in_place_writes)


def test_scanner_sees_in_place_stores():
    tree = ast.parse(
        "def f(p, q):\n"
        "    p.data[0] = 1\n"
        "    q.data[1:][0] += 2\n"
        "    np.add(p.data, 1, out=p.data)\n"
        "    np.add(p.data, 1, out=q.data[:2])\n"
        "    np.add(p.grad, 1, out=q.grad)\n"
        "    x = p.data[0]\n"
        "    p.data = q.data[0]\n"
    )
    assert in_place_writes(tree, "m") == [("m.f", 2), ("m.f", 3), ("m.f", 4), ("m.f", 5)]


def _classes(packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    methods = {
                        sub.name for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    }
                    yield f"{_module_name(path)}.{node.name}", methods


def test_module_is_the_only_parameter_walk():
    owners = sorted(
        name for name, methods in _classes(("nn", "models", "core"))
        if methods & set(PARAMETER_WALK)
    )
    assert owners == ["repro.nn.module.Module"]


def test_optimizers_supply_only_an_update_rule():
    stepping = sorted(
        name for name, methods in _classes(("optim",))
        if "step" in methods
    )
    assert stepping == ["repro.optim.asgd.ASGD", "repro.optim.optimizer.Optimizer"]


def _load_spans():
    path = ROOT / "benchmarks" / "e2e" / "spans.py"
    spec = importlib.util.spec_from_file_location("e2e_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_each_layer_once():
    """No patched original is itself a tracer wrapper: a class that
    inherits a patched method from another patched class would count
    that layer twice."""
    spans = _load_spans()
    with spans.Tracer() as tracer:
        targets = tracer.patch_targets()
        wrappers = [vars(owner)[attr] for owner, attr in targets]
        installed = {id(w) for w in wrappers}
        doubled = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), wrapper in zip(targets, wrappers)
            if id(wrapper.__wrapped__) in installed
        ]
    assert targets and not doubled
    assert not tracer.patch_targets()

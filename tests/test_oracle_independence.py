"""No numerical oracle reaches the closed form it checks.

A stdlib ``ast`` pass builds the package's call graph over its top-level
functions and class methods, named ``module.function`` and
``module.Class.method``:

- a call by name resolves to a definition of the same module, or through
  the module's ``from .x import y`` to one of module ``x``;
- a call of a class counts as a call of its ``__post_init__``;
- an attribute call ``x.name(...)`` counts as a call of every package method
  called ``name``, since the type of ``x`` is not known.

Calls inside nested functions count for the definition that encloses them.
A row of ``ORACLES`` fails when its oracle reaches, through any chain of
calls, a closed form that it checks.
"""

import ast
from pathlib import Path

import pytest

import calabi

PACKAGE = Path(calabi.__file__).parent

JACOBI_CLOSED = {"jacobi._closed_form", "jacobi.jacobi_closed_form", "jacobi.JacobiClosedForm.evaluate"}

# oracle -> the closed forms it checks
ORACLES = {
    "connection._transport_ode": {"connection.parallel_transport"},
    "verify.finite_difference_curvature": {
        "connection.curvature_tensor",
        "connection.sectional_curvature",
    },
    "connection._nested_commutator": {
        "connection.curvature_tensor",
        "connection.sectional_curvature",
    },
    "jacobi.jacobi_ode_rhs": JACOBI_CLOSED,
    "connection._rk4": JACOBI_CLOSED,
}


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Edges from every definition to the definitions it calls, for the
    modules of one package given as {module name: source}."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    bodies: dict[str, ast.AST] = {}
    methods: dict[str, set[str]] = {}
    scopes: dict[str, dict[str, str]] = {module: {} for module in trees}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scopes[module][node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                bodies[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = f"{module}.{node.name}.{item.name}"
                        bodies[name] = item
                        methods.setdefault(item.name, set()).add(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                for alias in node.names:
                    scopes[module][alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(module: str, name: str) -> set[str]:
        target = scopes[module].get(name)
        # follow a name that its module in turn imported, up to its definition
        while target is not None and target not in bodies:
            owner, attr = target.split(".", 1)
            if scopes[owner].get(attr) == target:
                break  # a class of ``owner``
            target = scopes[owner].get(attr)
        if target is None:
            return set()
        if target in bodies:
            return {target}
        init = f"{target}.__post_init__"
        return {init} if init in bodies else set()

    graph = {}
    for name, node in bodies.items():
        module = name.split(".", 1)[0]
        callees: set[str] = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name):
                callees |= resolve(module, call.func.id)
            elif isinstance(call.func, ast.Attribute):
                callees |= methods.get(call.func.attr, set())
        graph[name] = callees
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every definition that ``start`` calls through some chain of calls."""
    seen: set[str] = set()
    todo = list(graph[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


@pytest.fixture(scope="module")
def package_graph() -> dict[str, set[str]]:
    return call_graph({path.stem: path.read_text() for path in PACKAGE.glob("*.py")})


def test_graph_follows_imports_class_calls_attribute_calls_and_nesting():
    sources = {
        "a": (
            "from .b import helper as h\n"
            "def closed():\n"
            "    return 1\n"
            "class Form:\n"
            "    def __post_init__(self):\n"
            "        closed()\n"
            "    def evaluate(self):\n"
            "        return 2\n"
            "def oracle():\n"
            "    return h()\n"
            "def clean():\n"
            "    return len([])\n"
        ),
        "b": (
            "from .a import Form\n"
            "def helper(obj=None):\n"
            "    def step():\n"
            "        return obj.evaluate()\n"
            "    return step() + Form()\n"
        ),
    }
    graph = call_graph(sources)
    assert graph["a.oracle"] == {"b.helper"}
    assert graph["b.helper"] == {"a.Form.evaluate", "a.Form.__post_init__"}
    assert reachable(graph, "a.oracle") == {
        "b.helper",
        "a.Form.evaluate",
        "a.Form.__post_init__",
        "a.closed",
    }
    assert reachable(graph, "a.clean") == set()


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_does_not_reach_the_closed_form_it_checks(package_graph, oracle):
    assert ORACLES[oracle] <= set(package_graph), "a closed form of this row no longer exists"
    assert reachable(package_graph, oracle) & ORACLES[oracle] == set()


def test_the_chord_reference_imports_only_math():
    # the reference that scores ``distance`` in the tests lives outside the
    # package, so it cannot reach the chord kernel through any call
    tree = ast.parse((Path(__file__).parent / "chord_reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or ".")
    assert imported == {"math"}

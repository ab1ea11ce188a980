"""Structural guards on how the package reads tasks and outcomes.

Only the table compile in `tasks.py` and the brute-force oracles in
`verification.py` may call a task's evaluator; every other module reads
`GenerativeTask.obs_probs` through a compiled event.  Between the E-step
engines, the samplers and the M-step an outcome is its joint index, so the
modules on that path never turn an index back into a (z, y) tuple.
"""

import ast
from pathlib import Path

import latentlab

PACKAGE = Path(latentlab.__file__).parent
ALLOWED = {"tasks.py": {"obs_probs"}, "verification.py": None}
JOINT_INDEX_MODULES = ("esteps.py", "graph.py", "planner.py", "training.py")


def _attribute_calls(tree: ast.AST, attr: str):
    """(enclosing function name, line) of every `<expr>.<attr>(...)` call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_table_compile_and_oracles_call_the_evaluator():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        allowed = ALLOWED.get(path.name, set())
        for func, line in _attribute_calls(ast.parse(path.read_text()), "evaluator"):
            if allowed is not None and func not in allowed:
                offenders.append(f"{path.name}:{line} in {func}")
    assert not offenders, "evaluator called outside the table compile: " + ", ".join(offenders)


def test_guard_sees_a_call():
    tree = ast.parse("def f(task):\n    return task.evaluator(0, 0, 0, 1)\n")
    assert _attribute_calls(tree, "evaluator") == [("f", 2)]


def test_joint_index_path_never_unindexes():
    offenders = []
    for name in JOINT_INDEX_MODULES:
        tree = ast.parse((PACKAGE / name).read_text())
        for func, line in _attribute_calls(tree, "zy_unindex"):
            offenders.append(f"{name}:{line} in {func}")
    assert not offenders, "joint index turned into a (z, y) tuple: " + ", ".join(offenders)

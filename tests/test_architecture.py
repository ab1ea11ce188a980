"""Structural guards on how the package reads tasks and outcomes.

Only the table build in `tasks.py` and the brute-force oracles in
`verification.py` may call a task's evaluator, once per task and only when
the table is first read, and outside `verification.py` only a compiled
event's mass table reads the table it fills, `GenerativeTask.success`: an
event has no other form.  Between the E-step
engines, the samplers and the M-step an outcome is its joint index, so the
modules on that path never turn an index back into a (z, y) tuple.  The
averages over prompts read a model's [prompts, joint] matrix, never one
prompt at a time, and the policy-gradient ascent builds no model.  An
update computes no averaged objective or KL: the metric row computes each
number once.  In `training.py` one loop runs E-steps, `em_iterate`, and
only the tagged corpus and the preference loop draw samples outside it.
Every function of a production module (every module but
`verification.py`) has a caller in production or benchmark code, no
production function takes a fault switch (faults are built in
`verification.py`), a training run imports no scipy module, a run through
the harness imports neither `numpy.ma`, scipy nor the oracles, and every
name the benchmark wraps exists.  A trie keeps one copy's index tables
whatever the number of copies its kernels run over, one all-prompt pass
allocates a bounded multiple of its output, the caches behind the stacked
passes are bounded, and a model's views and event tables go with the model.
"""

import ast
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import latentlab
from latentlab.graph import EVENT_TABLES_SIZE, JointModel
from latentlab.models import random_model
from latentlab.rng import stream
from latentlab.tasks import (
    EventSpec,
    compile_event,
    full_event,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from latentlab.trie import Trie

PACKAGE = Path(latentlab.__file__).parent
ALLOWED = {"tasks.py": {"success"}, "verification.py": None}
# the success table and its accessor in tasks.py
OBS_TABLE = {"success", "_success_table"}
# its readers: the accessor reads the table, and the compiled event's mass
# table, which its mass rows return, reads the accessor
OBS_READERS = {"_success_table", "CompiledEvent._table"}
JOINT_INDEX_MODULES = ("esteps.py", "graph.py", "planner.py", "training.py")
BATCHED = {"graph.py": {"averaged_event_logprob", "averaged_grad"},
           "training.py": {"_averaged_kl", "mstep", "latent_dpo_loss_and_grad",
                           "conditional_sft_update"}}
PER_PROMPT = {"joint_log_probs", "event_logprob", "grad_event_logprob", "kl_between",
              "adjoint"}
# the updates leave the averaged objective and KL to the metric row
UPDATES = {"em_iterate", "filter_sft_update", "restem_update", "_rejection_em_update",
           "conditional_sft_update"}
ROW_METRICS = {"averaged_event_logprob", "_averaged_kl"}
# the policy-gradient ascent moves one prompt's logit vector, never a model
MODEL_BUILDERS = {"with_theta", "LogitModel"}
BENCH = PACKAGE.parents[1] / "bench"
# functions that production and benchmark code never call, kept on purpose
UNCALLED = {
    "elbo": "JointModel.elbo: the only ELBO implementation, with typed input checks",
    "read_checkpoint": "reads the checkpoint files that `latentlab run` writes",
}

# fault switches a production function keeps on purpose
FAULT_SWITCHES = {
    "planner.py:shape_rewards.terminal_sign_fault":
        "bench/tests/test_bench.py passes it to prove the benchmark counts a "
        "broken planner as failed",
}


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
    assert not offenders, "evaluator called outside the table build: " + ", ".join(offenders)


def test_guard_sees_a_call():
    tree = ast.parse("def f(task):\n    return task.evaluator(0, 0, 0)\n")
    assert _attribute_calls(tree, "evaluator") == [("f", 2)]


def test_one_evaluator_call_per_task_made_on_first_read():
    # wrapped on the instance after construction, as the benchmark counts
    # calls: a table built during construction would escape the count
    task = make_carry_addition_task(1, 3, evaluator="soft")
    calls = []
    evaluator = task.evaluator

    def counted(*args):
        calls.append(args)
        return evaluator(*args)

    task.evaluator = counted
    events = [compile_event(task, success_event()), compile_event(task, full_event())]
    assert calls == []
    for event in events:
        assert event.mass_all().shape == (task.n_prompts, task.n_joint)
    assert len(calls) == 1


def _reads(tree: ast.AST, names: set[str]) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of every use of one
    of `names` as a name or an attribute; `<module>` outside functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif isinstance(node, (ast.Name, ast.Attribute)) and getattr(
                node, "id", getattr(node, "attr", None)) in names:
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_mass_rows_read_the_observation_table():
    offenders, readers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "verification.py":
            continue
        for scope, line in _reads(ast.parse(path.read_text()), OBS_TABLE):
            readers.add(scope)
            if scope not in OBS_READERS:
                offenders.append(f"{path.name}:{line} in {scope}")
    assert not offenders, "observation table read outside the mass table: " + ", ".join(
        offenders)
    assert readers == OBS_READERS


def test_table_guard_sees_a_read_elsewhere():
    source = ("class CompiledEvent:\n"
              "    def _table(self):\n        return _success_table(self.task)\n"
              "    def pair_probs(self, x):\n"
              "        return _success_table(self.task)[x, self.pair_joint]\n"
              "def event_terms(task):\n    return np.log(task.success)\n")
    found = [read for read in _reads(ast.parse(source), OBS_TABLE)
             if read[0] not in OBS_READERS]
    assert found == [("CompiledEvent.pair_probs", 5), ("event_terms", 7)]


def test_joint_index_path_never_unindexes():
    offenders = []
    for name in JOINT_INDEX_MODULES:
        tree = ast.parse((PACKAGE / name).read_text())
        for func, line in _attribute_calls(tree, "zy_unindex"):
            offenders.append(f"{name}:{line} in {func}")
    assert not offenders, "joint index turned into a (z, y) tuple: " + ", ".join(offenders)


def _calls_inside(tree: ast.AST, functions: set[str], callees: set[str]):
    """(function, callee, line) of every call of a method or function named
    in `callees` anywhere inside the named functions, nested ones included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                callee = getattr(call.func, "attr", getattr(call.func, "id", None))
                if callee in callees:
                    found.append((node.name, callee, call.lineno))
    return found


def test_batched_averages_make_no_per_prompt_calls():
    offenders = []
    for name, functions in BATCHED.items():
        tree = ast.parse((PACKAGE / name).read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert functions <= defined
        offenders += [f"{name}:{line} {func} calls {callee}"
                      for func, callee, line in _calls_inside(tree, functions, PER_PROMPT)]
    assert not offenders, "per-prompt call in a batched average: " + ", ".join(offenders)


def test_per_prompt_guard_sees_loop_forms():
    loops = (
        "def averaged_grad(self, event):\n"
        "    for x in range(n):\n"
        "        grad += rho[x] * self.grad_event_logprob(x, event)\n"
        "def _averaged_kl(new, old, rho):\n"
        "    return sum(rho[x] * kl_between(new, old, x) for x in range(len(rho)))\n"
        "def mstep(model, posteriors):\n"
        "    def gradient(theta):\n"
        "        return model.features.adjoint(0, theta)\n"
    )
    found = _calls_inside(ast.parse(loops), {"averaged_grad", "_averaged_kl", "mstep"},
                          PER_PROMPT)
    assert found == [("averaged_grad", "grad_event_logprob", 3),
                     ("_averaged_kl", "kl_between", 5), ("mstep", "adjoint", 8)]


def test_updates_leave_row_metrics_to_the_row():
    tree = ast.parse((PACKAGE / "training.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert UPDATES <= defined
    found = _calls_inside(tree, UPDATES, ROW_METRICS)
    assert not found, "an update computes a row metric: " + ", ".join(
        f"training.py:{line} {func} calls {callee}" for func, callee, line in found)


def test_row_metric_guard_sees_both_averages():
    update = (
        "def em_iterate(model, event, rho):\n"
        "    before = JointModel(model).averaged_event_logprob(event)\n"
        "    return _averaged_kl(mstep(model), model, rho)\n"
    )
    found = _calls_inside(ast.parse(update), UPDATES, ROW_METRICS)
    assert found == [("em_iterate", "averaged_event_logprob", 2),
                     ("em_iterate", "_averaged_kl", 3)]


def _top_level_callers(tree: ast.AST, callee: str) -> set[str]:
    """Names of the module-level functions and classes in which `callee` is
    called, as a name or an attribute, nested functions included."""
    found = set()
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and callee == getattr(
                    call.func, "attr", getattr(call.func, "id", None)):
                found.add(getattr(node, "name", "<module>"))
    return found


def test_em_iterate_is_the_only_estep_loop():
    tree = ast.parse((PACKAGE / "training.py").read_text())
    assert _top_level_callers(tree, "run_estep") == {"em_iterate"}
    assert _top_level_callers(tree, "draws") == {"build_tagged_corpus", "run_pref_loop"}


def test_estep_loop_guard_sees_a_second_loop():
    source = (
        "def _sampled_update(model, budget):\n"
        "    return model.conditional_tables(0).draws(rng, budget)\n"
        "def run_restem(model):\n"
        "    def step(current, t):\n"
        "        return esteps.run_estep(jm, 0, event, spec, rng)\n"
        "    return step\n"
        "drawn = run_estep(jm, 0, event, spec)\n"
    )
    tree = ast.parse(source)
    assert _top_level_callers(tree, "draws") == {"_sampled_update"}
    assert _top_level_callers(tree, "run_estep") == {"run_restem", "<module>"}


def test_policy_gradient_ascent_builds_no_model():
    tree = ast.parse((PACKAGE / "esteps.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "estep_policy_gradient" in defined
    found = _calls_inside(tree, {"estep_policy_gradient"}, MODEL_BUILDERS)
    assert not found, "the policy-gradient ascent builds a model: " + ", ".join(
        f"esteps.py:{line} calls {callee}" for _, callee, line in found)


def test_model_build_guard_sees_both_forms():
    ascent = (
        "def estep_policy_gradient(jm, cfg):\n"
        "    policy = jm.seq.with_theta(jm.seq.theta)\n"
        "    def trial(theta):\n"
        "        return LogitModel(policy.features, theta)\n"
    )
    found = _calls_inside(ast.parse(ascent), {"estep_policy_gradient"}, MODEL_BUILDERS)
    assert found == [("estep_policy_gradient", "with_theta", 2),
                     ("estep_policy_gradient", "LogitModel", 4)]


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, name) of every function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _exports(statement: ast.stmt) -> bool:
    """Whether a statement assigns or extends `__all__`, which re-exports
    names and calls none."""
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _unreferenced(defining: dict[str, str], referencing: list[str]) -> dict[str, str]:
    """{`module:qualname`: name} of every non-dunder function defined in a
    `defining` source whose name no `referencing` source uses as a name, an
    attribute or an identifier string (as `getattr` names it).  A re-export
    is no use: imports name no `ast.Name`, and `__all__` is skipped."""
    used = set()
    for source in referencing:
        for statement in ast.parse(source).body:
            if _exports(statement):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return {f"{module}:{qualname}": name
            for module, source in defining.items()
            for qualname, name in _definitions(ast.parse(source))
            if name not in used and not name.startswith("__")}


def test_every_production_function_has_a_caller():
    production = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "verification.py"}
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert len(production) > 10 and len(bench) >= 3
    found = _unreferenced(production, list(production.values()) + bench)
    offenders = sorted(q for q, name in found.items() if name not in UNCALLED)
    assert not offenders, "no caller outside tests: " + ", ".join(offenders)
    assert set(found.values()) == set(UNCALLED), "stale UNCALLED entry"


def test_caller_guard_sees_an_unreferenced_def():
    defining = {"m.py": "class A:\n    def used(self):\n        pass\n"
                        "    def unused(self):\n        pass\n"
                        "    def __repr__(self):\n        pass\n"
                        "def helper():\n    return A().used()\n"
                        "def exported():\n    pass\n"}
    # a re-export is no caller; a name string elsewhere (getattr) is one
    caller = ("from m import exported, helper\n"
              "__all__ = ['exported', 'helper']\n"
              "wrapped = getattr(m, 'helper')\n")
    assert _unreferenced(defining, [*defining.values(), caller]) == {
        "m.py:A.unused": "unused", "m.py:exported": "exported"}


def _fault_switches(module: str, source: str) -> set[str]:
    """`module:function.parameter` of every parameter, of a function, method
    or lambda, whose name ends in `_fault`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg.endswith("_fault"):
                    found.add(f"{module}:{getattr(node, 'name', '<lambda>')}.{arg.arg}")
    return found


def test_no_production_function_takes_a_fault_switch():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "verification.py":
            found |= _fault_switches(path.name, path.read_text())
    offenders = sorted(found - set(FAULT_SWITCHES))
    assert not offenders, "fault switch in production code: " + ", ".join(offenders)
    assert set(FAULT_SWITCHES) <= found, "stale FAULT_SWITCHES entry"


def test_fault_switch_guard_sees_every_parameter_kind():
    source = ("def f(x, flip_fault=False):\n    pass\n"
              "class C:\n    def g(self, *, sign_fault):\n        pass\n"
              "h = lambda rows_fault: rows_fault\n"
              "def k(*args_fault, **kw_fault):\n    pass\n"
              "def clean(fault, faulty):\n    pass\n")
    assert _fault_switches("m.py", source) == {
        "m.py:f.flip_fault", "m.py:g.sign_fault", "m.py:<lambda>.rows_fault",
        "m.py:k.args_fault", "m.py:k.kw_fault"}


# one EM iteration with the policy-gradient E-step and the gradient M-step
# on a tabular and a 2-gram model, in a fresh interpreter; prints the scipy
# modules the run imported
TRAINING_RUN = """
import sys
import latentlab
from latentlab import harness
from latentlab.esteps import EStepSpec
from latentlab.tasks import success_event
from latentlab.training import MStepSpec, em_iterate

for features in ("tabular", "ngram"):
    cfg = harness.parse_config(
        "task: {kind: automaton, num_states: 2, input_len: 3}\\n"
        f"model: {{features: {features}, init: random}}\\n"
        "algorithm: em\\n"
        "estep: {backend: policy_gradient, params: {iterations: 3}}\\n"
        "mstep: {kind: gradient_ascent, steps: 3}\\n").data
    task = harness.build_task(cfg["task"])
    model = harness.build_model(cfg["model"], task, 0)
    em_iterate(model, task, success_event(),
               EStepSpec(cfg["estep"]["backend"], dict(cfg["estep"]["params"])),
               MStepSpec(**cfg["mstep"]), seed=0, iteration=0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    """`script` run by a new Python with the package importable and no
    bytecode written."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def _stdout_of(script: str) -> str:
    done = _fresh_interpreter(script)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_training_run_imports_no_scipy():
    assert _stdout_of(TRAINING_RUN) == "[]"


def test_scipy_guard_sees_an_import():
    loaded = _stdout_of(TRAINING_RUN.replace(
        "import latentlab\n", "import latentlab\nimport scipy.sparse\n", 1))
    assert "'scipy.sparse'" in loaded


# a small EM run through the harness, in a fresh interpreter; prints the
# modules it imported from under FORBIDDEN_IMPORTS
HARNESS_RUN = """
import sys
import tempfile
from latentlab import harness

cfg = harness.parse_config(
    "task: {kind: carry, digits: 1, base: 3}\\n"
    "model: {features: tabular, init: random}\\n"
    "algorithm: em\\n"
    "iterations: 2\\n"
    "estep: {backend: planning}\\n"
    "mstep: {kind: closed_form}\\n")
with tempfile.TemporaryDirectory() as out:
    harness.execute_run(cfg, out)
print(sorted(name for name in sys.modules
             if any(name == root or name.startswith(root + ".") for root in %r)))
"""
# a run needs none of these: numpy.ma costs start-up time and memory, scipy
# and the oracles are for checks
FORBIDDEN_IMPORTS = ("numpy.ma", "scipy", "latentlab.verification")


def test_harness_run_imports_no_masked_arrays_scipy_or_oracles():
    assert _stdout_of(HARNESS_RUN % (FORBIDDEN_IMPORTS,)) == "[]"


@pytest.mark.parametrize("module", FORBIDDEN_IMPORTS)
def test_import_guard_sees_each_forbidden_module(module):
    loaded = _stdout_of((HARNESS_RUN % (FORBIDDEN_IMPORTS,)).replace(
        "from latentlab import harness\n", f"from latentlab import harness\nimport {module}\n", 1))
    assert f"'{module}'" in loaded


# installs the benchmark's spans and counters on the package, then undoes
# them; `install` reads each wrapped name with `vars(owner)[name]`, so a
# deleted or renamed name raises KeyError.  A fresh interpreter keeps a
# part-way install, which leaves its earlier wrappers in place, out of
# this process.
BENCH_WRAP = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import spans
spans.install(spans.Tracer())()
"""


def test_benchmark_wrap_sites_exist():
    done = _fresh_interpreter(BENCH_WRAP)
    assert done.returncode == 0, done.stderr


def test_wrap_site_check_sees_a_missing_name():
    done = _fresh_interpreter(
        "from latentlab import training\ndel training.restem_update\n" + BENCH_WRAP)
    assert done.returncode != 0
    assert "KeyError: 'restem_update'" in done.stderr


def _nbytes(value) -> int:
    """Bytes held by the numpy arrays in `value`, through lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(map(_nbytes, value))
    return 0


def test_trie_state_does_not_grow_with_copy_counts():
    trie = make_reward_tag_task(2, 3, seed=1).trie
    state = None
    for copies in range(1, 101):
        values = np.zeros((copies, trie.n_nodes))
        trie.upward(np.zeros((copies, len(trie.sequences))))
        trie.child_minus_parent(values)
        trie.run_cumsum(values)
        now = set(vars(trie)), _nbytes(vars(trie))
        assert state is None or now == state
        state = now


def test_one_all_prompt_pass_allocates_at_most_four_outputs():
    task = make_carry_addition_task(2, 3)
    trie = Trie(task.joint_sequences)
    leaves = stream(5, "pass").normal(size=(task.n_prompts, len(trie.sequences)))
    tracemalloc.start()
    try:
        out = trie.upward(leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (81, trie.n_nodes)
    assert peak / out.nbytes <= 4


def test_event_tables_are_bounded_per_model():
    task = make_reward_tag_task(2, 50, seed=1)
    jm = JointModel(random_model(task, stream(2, "tables"), scale=0.8))
    events = [EventSpec(latents=(z,), responses=(y,))
              for z in range(task.n_latents) for y in range(task.n_responses)]
    assert len(events) == 100
    for event in events:
        jm.averaged_event_logprob(event)
        assert len(jm.seq.event_tables) <= EVENT_TABLES_SIZE
    assert len(jm.seq.event_tables) == EVENT_TABLES_SIZE


def test_views_and_event_tables_are_freed_with_their_model():
    task = make_reward_tag_task(3, 4, seed=1)
    model = random_model(task, stream(3, "freed"), scale=0.8)
    jm = JointModel(model)
    row = jm.exact_posterior(0, success_event())
    view = model.conditional_tables(1)
    refs = [weakref.ref(obj) for obj in (model, view, view.logp.base, row.base,
                                        *model.event_tables.values())]
    del model, jm, row, view
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)

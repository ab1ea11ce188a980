from pathlib import Path

import pytest

from latentlab.cli import main

CONFIG = """
task:
  kind: tag
  n_prompts: 2
  n_responses: 5
  seed: 0
event: success
model:
  features: tabular
  init: uniform
algorithm: em
iterations: 2
seeds: [0]
estep:
  backend: exact
mstep:
  kind: closed_form
"""


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(CONFIG)
    return p


def test_run_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert str(out) in printed
    assert (out / "record.seed0.tsv").exists()
    assert main(["report", str(out)]) == 0
    assert (out / "series.objective.tsv").exists()


def test_compare(tmp_path, config_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config_path), "--out", str(a)]) == 0
    assert main(["run", str(config_path), "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert "wins=" in capsys.readouterr().out


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    assert capsys.readouterr().err != ""


def test_run_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(CONFIG + "\nbogus_key: 1\n")
    assert main(["run", str(p)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_verify_single_check(capsys):
    assert main(["verify", "--filter", "tasks.factory_counts"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out


def test_verify_fault_injection(capsys):
    code = main(
        ["verify", "--filter", "planner.shap*", "--inject-fault", "shaping-sign"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_unknown_fault(capsys):
    assert main(["verify", "--inject-fault", "no-such-fault"]) == 2


def test_verify_no_match(capsys):
    assert main(["verify", "--filter", "zzz.*"]) == 2


TAG = "task:\n  kind: tag\n  n_prompts: 2\n  n_responses: 5\n"


@pytest.mark.parametrize("field, section", [
    ("model.scale", TAG + "model:\n  init: random\n  scale: -1.0\n"),
    ("model.scale", TAG + "model:\n  init: random\n  scale: .nan\n"),
    ("task.soft_beta", TAG + "  evaluator: soft\n  soft_beta: -1.0\n"),
    ("task.wrong_penalty", TAG + "  evaluator: soft\n  wrong_penalty: 2.0\n"),
    ("task.base", "task:\n  kind: carry\n  digits: 1\n  base: 1\n"),
    ("task.num_states", "task:\n  kind: automaton\n  num_states: 1\n  input_len: 2\n"),
    ("task.n_responses", "task:\n  kind: tag\n  n_prompts: 2\n  n_responses: 1\n"),
    ("dpo.beta", TAG + "dpo:\n  beta: -1.0\n"),
    ("dpo.rate", TAG + "dpo:\n  rate: -1.0\n"),
    ("dpo.beta", TAG + "dpo:\n  beta: .nan\n"),
    ("dpo.rate", TAG + "dpo:\n  rate: .inf\n"),
    ("estep.params.beta", TAG + "estep: {backend: planning, params: {beta: .inf}}\n"),
    ("estep.params.step_size",
     TAG + "estep: {backend: policy_gradient, params: {step_size: .inf}}\n"),
    ("estep.params.reward_floor",
     TAG + "estep: {backend: policy_gradient, params: {reward_floor: -.inf}}\n"),
    ("estep.params.beta", TAG + "estep: {backend: policy_gradient, params: {beta: .inf}}\n"),
    ("mstep.rate", TAG + "mstep: {kind: gradient_ascent, rate: .inf}\n"),
], ids=["negative-scale", "nan-scale", "negative-soft-beta", "positive-wrong-penalty",
        "carry-base-1", "one-state-automaton", "one-response-tag",
        "negative-dpo-beta", "negative-dpo-rate", "nan-dpo-beta", "inf-dpo-rate",
        "inf-planning-beta", "inf-pg-step-size", "minus-inf-pg-reward-floor",
        "inf-pg-beta", "inf-mstep-rate"])
def test_run_rejects_bad_values_before_making_a_run_directory(
    tmp_path, capsys, field, section
):
    p = tmp_path / "bad.yaml"
    algorithm = "iter_dpo" if field.startswith("dpo.") else "em"
    p.write_text(f"algorithm: {algorithm}\niterations: 1\nseeds: [0]\n" + section)
    out = tmp_path / "run"
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert not out.exists()

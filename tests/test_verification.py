"""Full verification registry run plus fault-injection sanity.

The registry holds the expensive cross-validation (brute-force oracles,
convergence certificates, unification identities); this module simply
requires all of it to pass and proves the checks can actually fail.
"""

import pytest

from latentlab.errors import ConfigError
from latentlab.verification import CHECKS, run_checks


def test_every_check_passes():
    results = run_checks()
    assert len(results) == len(CHECKS)
    failed = [(name, r) for name, r in results if not r.ok]
    detail = "\n".join(f"{name}: {r.detail}" for name, r in failed)
    assert not failed, f"{len(failed)} checks failed:\n{detail}"


def test_fault_injection_flips_checks():
    clean = run_checks("planner.shap*")
    assert len(clean) == 2 and all(r.ok for _, r in clean)
    faulted = run_checks("planner.shap*", inject_fault="shaping-sign")
    assert all(not r.ok for _, r in faulted)


def test_fault_restored_after_injection():
    run_checks("planner.shap*", inject_fault="shaping-sign")
    again = run_checks("planner.shap*")
    assert len(again) == 2
    assert all(r.ok for _, r in again)


def test_trie_upward_fault_flips_kernel_checks():
    names = ("models.autoregressive_consistency", "planner.trajectory_softmax",
             "planner.bellman_consistency")
    faulted = [res for name in names
               for res in run_checks(name, inject_fault="trie-upward")]
    assert len(faulted) == 3
    assert not any(r.ok for _, r in faulted)
    restored = [res for name in names for res in run_checks(name)]
    assert len(restored) == 3
    assert all(r.ok for _, r in restored)


def test_obs_table_fault_flips_table_checks():
    names = ("graph.factorization", "graph.posterior_oracle",
             "planner.shaping_telescoping")
    faulted = [res for name in names
               for res in run_checks(name, inject_fault="obs-table")]
    assert len(faulted) == 3
    assert not any(r.ok for _, r in faulted)
    restored = [res for name in names for res in run_checks(name)]
    assert len(restored) == 3
    assert all(r.ok for _, r in restored)


def test_joint_marginal_fault_flips_marginal_checks():
    names = ("esteps.backend_agreement", "graph.gradient_identity")
    faulted = [res for name in names
               for res in run_checks(name, inject_fault="joint-marginal")]
    assert len(faulted) == 2
    assert not any(r.ok for _, r in faulted)
    restored = [res for name in names for res in run_checks(name)]
    assert len(restored) == 2
    assert all(r.ok for _, r in restored)


def test_batched_rows_fault_flips_batched_checks():
    names = ("graph.batched_averages", "graph.gradient_identity")
    faulted = [res for name in names
               for res in run_checks(name, inject_fault="batched-rows")]
    assert len(faulted) == 2
    assert not any(r.ok for _, r in faulted)
    restored = [res for name in names for res in run_checks(name)]
    assert len(restored) == 2
    assert all(r.ok for _, r in restored)


def test_comparator_set_fault_flips_reference_checks():
    pattern = "training.reference_*"
    faulted = run_checks(pattern, inject_fault="comparator-set")
    assert [name for name, _ in faulted] == [
        "training.reference_gap", "training.reference_closed_form"]
    assert not any(r.ok for _, r in faulted)
    restored = run_checks(pattern)
    assert len(restored) == 2
    assert all(r.ok for _, r in restored)


def test_unknown_fault_rejected():
    with pytest.raises(ConfigError):
        run_checks(inject_fault="no-such-fault")

"""Full verification registry run plus fault-injection sanity.

The registry holds the expensive cross-validation (brute-force oracles,
convergence certificates, unification identities); this module simply
requires all of it to pass and proves the checks can actually fail.
"""

import pytest

from latentlab.errors import ConfigError
from latentlab.verification import CHECKS, FAULT_NAMES, run_checks


def test_every_check_passes():
    results = run_checks()
    assert len(results) == len(CHECKS)
    failed = [(name, r) for name, r in results if not r.ok]
    detail = "\n".join(f"{name}: {r.detail}" for name, r in failed)
    assert not failed, f"{len(failed)} checks failed:\n{detail}"


# fault -> checks it must flip, each of which passes again without the fault
FLIPS = {
    "shaping-sign": ("planner.shaping_telescoping", "planner.shaped_posterior"),
    "trie-upward": ("models.autoregressive_consistency", "planner.trajectory_softmax",
                    "planner.bellman_consistency"),
    "obs-table": ("graph.factorization", "graph.posterior_oracle",
                  "planner.shaping_telescoping", "tasks.evaluator_normalization"),
    "joint-marginal": ("esteps.backend_agreement", "graph.gradient_identity"),
    "batched-rows": ("graph.batched_averages", "graph.gradient_identity",
                     "models.partition_oracle"),
    "comparator-set": ("training.reference_gap", "training.reference_closed_form"),
    "stale-fisher": ("esteps.fisher_step",),
    "ngram-counts": ("models.feature_adjoint",),
    "level-walk": ("models.batched_draws_match_walks", "esteps.rejection_soundness"),
    "stacked-offset": ("models.stacked_tables_match_rows", "models.autoregressive_consistency",
                       "planner.shaped_posterior"),
}


def test_flip_table_covers_every_fault():
    assert set(FLIPS) == set(FAULT_NAMES)


@pytest.mark.parametrize("fault", FAULT_NAMES)
def test_fault_flips_its_checks(fault):
    names = FLIPS[fault]
    faulted = [res for name in names for res in run_checks(name, inject_fault=fault)]
    assert tuple(name for name, _ in faulted) == names
    assert not any(r.ok for _, r in faulted)
    restored = [res for name in names for res in run_checks(name)]
    assert tuple(name for name, _ in restored) == names
    assert all(r.ok for _, r in restored)


def test_fault_restored_after_injection():
    run_checks("planner.shap*", inject_fault="shaping-sign")
    again = run_checks("planner.shap*")
    assert len(again) == 2
    assert all(r.ok for _, r in again)


def test_unknown_fault_rejected():
    with pytest.raises(ConfigError):
        run_checks(inject_fault="no-such-fault")

"""The self-check invariant suite: green on a healthy build, red under
deliberate mutation."""

import numpy as np

import hessianls.core
from hessianls import criteria, verify


def _failed(results):
    return {r.name for r in results if not r.passed}


def test_all_invariants_pass():
    results = verify.run_all()
    assert len(results) >= 15
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_results_reportable():
    results = verify.run_all()
    for r in results:
        d = r.to_dict()
        assert set(d) == {"name", "passed", "detail"}
        assert isinstance(d["detail"], str) and d["detail"]


def test_deterministic():
    first = [(r.name, r.passed, r.detail) for r in verify.run_all()]
    second = [(r.name, r.passed, r.detail) for r in verify.run_all()]
    assert first == second


def test_detects_sigma_mutation(monkeypatch):
    # A sign error in the core symmetric-function kernel must be caught.
    original = hessianls.core.sigma_j_radial

    def corrupted(j, d2u, du_over_r, n):
        return -np.asarray(original(j, d2u, du_over_r, n))

    monkeypatch.setattr(hessianls.core, "sigma_j_radial", corrupted)
    results = verify.run_all()
    assert any(not r.passed for r in results)


def test_detects_binomial_mutation(monkeypatch):
    monkeypatch.setattr(hessianls.core, "binomial", lambda n, k: 1 if k <= n else 0)
    results = verify.run_all()
    assert any(not r.passed for r in results)


def test_detects_inverted_threshold_rule(monkeypatch):
    # Both threshold invariants decide from the tails through the one rule
    # every verdict shares; inverting it must turn both red.
    original = criteria._exceeds

    def inverted(*args):
        above = original(*args)
        return None if above is None else not above

    monkeypatch.setattr(criteria, "_exceeds", inverted)
    failed = _failed(verify.run_all())
    assert {"classification_thresholds", "oscillation_threshold"} <= failed


def test_detects_oscillation_threshold_mutation(monkeypatch):
    # m* collapsed to 2k for every envelope tail.
    monkeypatch.setattr(criteria, "oscillation_threshold",
                        lambda params, tail_star: 2.0 * params.k)
    assert "oscillation_threshold" in _failed(verify.run_all())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  (about 10 s on a 2-vCPU VM).
"""
import time

from multiwp import verify


def _report(num: int, label: str, checks, budget: float, elapsed: float) -> None:
    failed = [c for c in checks if not c.passed]
    worst = max((c.residual for c in checks), default=0.0)
    status = "PASS" if not failed else "FAIL"
    print(f"\n[criterion {num}] {label}: {status} "
          f"({len(checks) - len(failed)}/{len(checks)} checks, worst residual "
          f"{worst:.3g}, {elapsed:.1f}s)")
    for c in failed:
        print(f"    FAIL {c.name}: residual={c.residual:.3g} tol={c.tol:.3g}")
    assert not failed
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_criterion_1_intro_reductions():
    t0 = time.time()
    checks = verify.suite_intro_reductions(seed=20260811)
    _report(1, "intro reductions at 20 random (z, tau)", checks, 120, time.time() - t0)


def test_criterion_2_reduction_soundness():
    t0 = time.time()
    checks = verify.suite_reduction_soundness(seed=2, max_weight=8)
    _report(2, "reduction vs direct sum, weight <= 8 depth <= 3", checks, 600,
            time.time() - t0)


def test_criterion_3_relation_table():
    t0 = time.time()
    checks = verify.suite_table(max_weight=12)
    _report(3, "relation-count table, weights 2..12", checks, 300, time.time() - t0)


def test_criterion_3_stretch_weights_13_16():
    t0 = time.time()
    checks = verify.suite_table(max_weight=16, min_weight=13)
    _report(3, "relation-count table, stretch weights 13..16", checks, 300,
            time.time() - t0)


def test_criterion_4_mzv_relations():
    t0 = time.time()
    checks = verify.suite_mzv_relations(max_weight=8)
    _report(4, "multiple-zeta relations, weight <= 8", checks, 120, time.time() - t0)


def test_criterion_5_antipode():
    t0 = time.time()
    checks = verify.suite_antipode(seed=5, max_weight=8)
    _report(5, "antipode identities (Q-derivatives and formal relations)",
            checks, 120, time.time() - t0)


def test_criterion_6_dual_pipeline():
    t0 = time.time()
    checks = verify.suite_dual_pipeline(max_weight=7)
    _report(6, "direct vs q-expansion pipelines, weight <= 7", checks, 120,
            time.time() - t0)


def test_criterion_7_depth_one():
    t0 = time.time()
    checks = verify.suite_depth_one()
    _report(7, "Legendre relation and derivative table", checks, 60, time.time() - t0)


def test_criterion_8_repeated_index():
    t0 = time.time()
    checks = verify.suite_repeated_index(seed=8)
    _report(8, "repeated-index closed forms", checks, 60, time.time() - t0)


def test_criterion_9_appendix_b():
    t0 = time.time()
    checks = verify.suite_appendix_b(seed=9)
    _report(9, "Fourier expansion and modular transformation of wp_{2^r}",
            checks, 120, time.time() - t0)


def test_criterion_10_properties():
    t0 = time.time()
    checks = verify.suite_properties(seed=10)
    _report(10, "property suites (periodicity, reflection, harmonic product, "
                "pole order, stuffle laws)", checks, 600, time.time() - t0)

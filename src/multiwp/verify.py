"""Verification suites: each check evaluates one analytic identity (or exact
table entry) and reports its residual against a fixed tolerance.

These functions back both the ``multiwp verify`` CLI subcommand and the
acceptance test module; all randomness is seeded.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import factorial

import numpy as np

from .core import (EvalConfig, Index, compositions_ge2, stuffle, stuffle_combination,
                   stuffle_expand)
from . import meisen, multip, relations, weier
from .qmod import QuasiModular, WpPolynomial

TABLE_REL_ANTI = {2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 1, 8: 4, 9: 5, 10: 13,
                  11: 19, 12: 40, 13: 62, 14: 115, 15: 188, 16: 328}
TABLE_DIM = {2: 1, 3: 1, 4: 2, 5: 3, 6: 4, 7: 7, 8: 9, 9: 15, 10: 21, 11: 32,
             12: 47, 13: 70, 14: 104, 15: 153, 16: 228}


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _check(name: str, residual: float, tol: float, t0: float) -> CheckResult:
    return CheckResult(name, float(residual), float(tol),
                       bool(residual <= tol), time.time() - t0)


def _fundamental_tau(rng) -> complex:
    while True:
        x = rng.uniform(-0.45, 0.45)
        y = rng.uniform(0.9, 1.7)
        tau = complex(x, y)
        if abs(tau) >= 1.02:
            return tau


def _sample_z(rng) -> complex:
    return complex(rng.uniform(0.12, 0.38), rng.uniform(0.08, 0.3))


# the truncation of the direct sums that the suites check to 1e-5 .. 1e-7
_FINE = EvalConfig(M=12, N=8000)


# ---------------------------------------------------------------------------
# criterion 1: the four depth<=3 example reductions
# ---------------------------------------------------------------------------

def suite_intro_reductions(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for p in range(20):
        tau = _fundamental_tau(rng)
        z = _sample_z(rng)
        G2 = weier.eisenstein_G(2, tau)
        G4 = weier.eisenstein_G(4, tau)
        G6 = weier.eisenstein_G(6, tau)
        wp = weier.wp(z, tau)
        wp3 = weier.wp_k(3, z, tau)
        closed = {
            (2, 2): G2 * wp + 0.5 * (G2**2 + 5 * G4),
            (2, 2, 2): 0.5 * (G2**2 - G4) * wp + G2**3 / 6 + 2.5 * G2 * G4 - 14.0 / 3 * G6,
            (3, 3): -3 * G4 * wp - 10.5 * G6,
        }
        for ix, want in closed.items():
            t0 = time.time()
            got = multip.multiwp_direct(ix, z, tau, _FINE)
            out.append(_check(f"intro {ix} pt{p}", abs(got - want), 1e-7, t0))
        # wp_{2,3} = Gt_2 wp_3 - 3 Gt_3 wp - 11 Gt_5 - 2 Gt_{2,3}
        # (the wp_3 normalization of the leading term, i.e. -Gt_2/2 times wp',
        #  is pinned by the reduction theorem and the direct sum)
        t0 = time.time()
        gt = lambda ix: meisen.meis_qexp(ix, tau)
        want = gt((2,)) * wp3 - 3 * gt((3,)) * wp - 11 * gt((5,)) - 2 * gt((2, 3))
        got = multip.multiwp_direct((2, 3), z, tau, _FINE)
        out.append(_check(f"intro (2, 3) pt{p}", abs(got - want), 1e-7, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 2: reduction soundness
# ---------------------------------------------------------------------------

def admissible_indices(max_weight: int, max_depth: int | None = None):
    for w in range(2, max_weight + 1):
        for ix in compositions_ge2(w):
            if max_depth is None or ix.depth <= max_depth:
                yield ix


def suite_reduction_soundness(seed: int = 0, max_weight: int = 8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    points = [(_sample_z(rng), _fundamental_tau(rng)) for _ in range(5)]
    out = []
    for ix in admissible_indices(max_weight, 3):
        rf = multip.multiwp_reduce(ix)
        for p, (z, tau) in enumerate(points):
            t0 = time.time()
            got = multip.multiwp_direct(ix, z, tau, _FINE)
            want = rf.evaluate(z, tau)
            out.append(_check(f"reduce {tuple(ix)} pt{p}", abs(got - want), 1e-5, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 3: the relation-count table
# ---------------------------------------------------------------------------

def suite_table(max_weight: int = 12, min_weight: int = 2) -> list[CheckResult]:
    out = []
    for w in range(min_weight, max_weight + 1):
        t0 = time.time()
        dim = relations.conjectured_dim(w)
        out.append(_check(f"dim_conj({w}) == {TABLE_DIM[w]}",
                          abs(dim - TABLE_DIM[w]), 0.0, t0))
        t0 = time.time()
        rk = relations.relation_rank(w)
        out.append(_check(f"rel_anti({w}) == {TABLE_REL_ANTI[w]}",
                          abs(rk - TABLE_REL_ANTI[w]), 0.0, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 4: multiple-zeta relations
# ---------------------------------------------------------------------------

def suite_mzv_relations(max_weight: int = 8) -> list[CheckResult]:
    out = []
    for ix in admissible_indices(max_weight):
        t0 = time.time()
        r = relations.mzv_relation_residual(ix)
        out.append(_check(f"mzv relation {tuple(ix)}", r, 1e-6, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 5: antipode identities
# ---------------------------------------------------------------------------

def suite_antipode(seed: int = 0, max_weight: int = 8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    tau, tol = 2j, 1e-5
    out = []
    for r in (1, 2, 3):
        t0 = time.time()
        xs = [complex(a, b) for a, b in
              zip(0.08 * rng.standard_normal(r), 0.08 * rng.standard_normal(r))]
        res = abs(multip.antipode_residual(r, xs, tau))
        out.append(_check(f"antipode Q-derivative r={r}",
                          res, 1e-6 if r <= 2 else tol, t0))
    for w in range(6, max_weight + 1):
        for src in compositions_ge2(w + 1):
            rel = relations.antipode_relation(src)
            if not rel:
                continue
            t0 = time.time()
            res = relations.combination_residual(rel, tau)
            out.append(_check(f"antipode relation from {tuple(src)}", res, tol, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 6: dual-pipeline agreement
# ---------------------------------------------------------------------------

def suite_dual_pipeline(max_weight: int = 7) -> list[CheckResult]:
    out = []
    for tau in (1j, 2j, 0.5 + 2j):
        for ix in admissible_indices(max_weight):
            t0 = time.time()
            qe = meisen.meis_qexp(ix, tau)
            de, est = meisen.meis_direct_error(ix, tau)
            combined = 3.0 * est + 1e-8 * (1 + abs(qe))
            out.append(_check(f"dual {tuple(ix)} tau={tau}", abs(qe - de), combined, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 7: depth-one classics
# ---------------------------------------------------------------------------

def _reference_deriv_poly(k: int) -> WpPolynomial:
    """The classical table for wp_2^{(2k-2)}, k = 1..6, entered verbatim."""
    G4, G6 = QuasiModular.gen(4), QuasiModular.gen(6)
    one = QuasiModular.const(1)
    f = factorial
    tables = {
        1: {(1, 0): one, (0, 0): QuasiModular.gen(2)},
        2: {(2, 0): 3 * f(2) * one, (0, 0): -15 * f(2) * G4},
        3: {(3, 0): 5 * f(4) * one, (1, 0): -45 * f(4) * G4, (0, 0): -70 * f(4) * G6},
        4: {(4, 0): 7 * f(6) * one, (2, 0): -84 * f(6) * G4,
            (1, 0): -140 * f(6) * G6, (0, 0): 45 * f(6) * G4**2},
        5: {(5, 0): 9 * f(8) * one, (3, 0): -135 * f(8) * G4,
            (2, 0): -225 * f(8) * G6, (1, 0): 270 * f(8) * G4**2,
            (0, 0): 495 * f(8) * G4 * G6},
        6: {(6, 0): 11 * f(10) * one, (4, 0): -198 * f(10) * G4,
            (3, 0): -330 * f(10) * G6, (2, 0): 693 * f(10) * G4**2,
            (1, 0): 1710 * f(10) * G4 * G6,
            (0, 0): 700 * f(10) * G6**2 - 90 * f(10) * G4**3},
    }
    return WpPolynomial(tables[k])


def suite_depth_one() -> list[CheckResult]:
    out = []
    for tau in (1j, (1 + 1j * np.sqrt(3)) / 2):
        t0 = time.time()
        e1, et = weier.quasi_periods(tau)
        out.append(_check(f"Legendre eta1*tau - eta_tau = 2 pi i (tau={tau:.3f})",
                          abs(e1 * tau - et - 2j * np.pi), 1e-10, t0))
    for k in range(1, 7):
        t0 = time.time()
        match = weier.wp_deriv_poly(k) == _reference_deriv_poly(k)
        out.append(_check(f"wp_2^({2 * k - 2}) matches the reference table", 0.0 if match else 1.0, 0.0, t0))
    for k in range(1, 6):
        t0 = time.time()
        tf = weier.wp_deriv_trace_form(k)
        ok = (tf["classical"].normalize() == weier.wp_deriv_poly(k).normalize()
              and tf["multi_wp"].normalize() == weier.wp_deriv_poly(k).normalize())
        out.append(_check(f"trace forms k={k} == derivative polynomial",
                          0.0 if ok else 1.0, 0.0, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 8: repeated-index closed forms
# ---------------------------------------------------------------------------

def suite_repeated_index(seed: int = 0) -> list[CheckResult]:
    out = []
    G2, G4 = QuasiModular.gen(2), QuasiModular.gen(4)
    t0 = time.time()
    ok = weier.f_coeff(2) == G2
    out.append(_check("f_2 == G_2", 0.0 if ok else 1.0, 0.0, t0))
    t0 = time.time()
    ok = weier.f_coeff(3) == (G2 * G2 - G4) / 2
    out.append(_check("f_3 == (G_2^2 - G_4)/2", 0.0 if ok else 1.0, 0.0, t0))
    t0 = time.time()
    ok = weier.g_hat_coeff(2) == (G2 * G2 + 5 * G4) / 2
    out.append(_check("g_hat_2 == (G_2^2 + 5 G_4)/2", 0.0 if ok else 1.0, 0.0, t0))
    rng = np.random.default_rng(seed)
    tau = _fundamental_tau(rng)
    z = _sample_z(rng)
    t0 = time.time()
    closed = weier.repeated_index_closed_form(3, 3)
    want = weier.eval_wp_polynomial(closed, z, tau)
    got = multip.multiwp_direct((3, 3, 3), z, tau, EvalConfig(M=12, N=4000))
    out.append(_check("wp_{3,3,3} == -Tr(beta'; -G_6) wp_3 (numeric)",
                      abs(got - want), 1e-6, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 9: Fourier expansion and modular transformation of wp_{2^r}
# ---------------------------------------------------------------------------

def suite_appendix_b(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    tau, tol = 2j, 1e-6
    for r in (1, 2, 3):
        t0 = time.time()
        z = complex(rng.uniform(0.1, 0.4), rng.uniform(0.3, 0.7))
        vf = multip.multiwp22_fourier(r, z, tau)
        vd = multip.multiwp_direct((2,) * r, z, tau, _FINE)
        out.append(_check(f"fourier wp_{{2^{r}}} vs direct", abs(vf - vd), tol, t0))
    for r in (0, 1, 2):
        for name, mat in (("T", (1, 1, 0, 1)), ("S", (0, -1, 1, 0))):
            t0 = time.time()
            z = complex(rng.uniform(0.15, 0.35), rng.uniform(0.1, 0.25))
            res = multip.modular_transform_check(r, mat, z, tau, _FINE)
            out.append(_check(f"modular {name} r={r}", res, tol, t0))
    return out


# ---------------------------------------------------------------------------
# criterion 10: property suites
# ---------------------------------------------------------------------------

def suite_properties(seed: int = 0) -> list[CheckResult]:
    cfg = EvalConfig(M=12, N=2000)
    rng = np.random.default_rng(seed)
    out = []

    # stuffle commutativity/associativity, exhaustive to weight 10
    t0 = time.time()

    def comps(w):
        if w == 0:
            return [()]
        return [(f,) + r for f in range(1, w + 1) for r in comps(w - f)]

    bad = 0
    for w1 in range(1, 9):
        for w2 in range(1, 11 - w1):
            for a in comps(w1):
                for b in comps(w2):
                    if stuffle(a, b) != stuffle(b, a):
                        bad += 1
    out.append(_check("stuffle commutative (weight <= 10, exhaustive)", bad, 0.0, t0))
    t0 = time.time()
    bad = 0
    for w1 in range(1, 7):
        for w2 in range(1, 9 - w1):
            for w3 in range(1, 11 - w1 - w2):
                for a in comps(w1):
                    for b in comps(w2):
                        for c in comps(w3):
                            lhs = stuffle_combination(stuffle(a, b), {Index(c): 1})
                            rhs = stuffle_combination({Index(a): 1}, stuffle(b, c))
                            if lhs != rhs:
                                bad += 1
    out.append(_check("stuffle associative (weight <= 10, exhaustive)", bad, 0.0, t0))

    # double periodicity and reflection symmetry
    tau = _fundamental_tau(rng)
    for ix in [(2, 2), (2, 3), (3, 3)]:
        ix = Index(ix)
        worst_p = 0.0
        worst_r = 0.0
        t0 = time.time()
        for _ in range(10):
            z = _sample_z(rng)
            v = multip.multiwp_direct(ix, z, tau, cfg)
            worst_p = max(worst_p,
                          abs(multip.multiwp_direct(ix, z + 1, tau, cfg) - v),
                          abs(multip.multiwp_direct(ix, z + tau, tau, cfg) - v))
            vr = multip.multiwp_direct(ix.reversed(), -z, tau, cfg)
            worst_r = max(worst_r, abs(vr - (-1) ** ix.weight * v))
        out.append(_check(f"periodicity {tuple(ix)} (10 pts)", worst_p, 1e-5, t0))
        out.append(_check(f"reflection {tuple(ix)} (10 pts)", worst_r, 1e-5, t0))

    # harmonic product of multiple wp at a random point, total weight <= 8
    z = _sample_z(rng)
    pairs = [(a, b) for wa in range(2, 7) for wb in range(2, 9 - wa)
             for a in compositions_ge2(wa) for b in compositions_ge2(wb)
             if a.depth + b.depth <= 3]
    vals: dict[Index, complex] = {}

    def mval(ix):
        if ix not in vals:
            vals[ix] = multip.multiwp_direct(ix, z, tau, cfg)
        return vals[ix]

    worst = 0.0
    t0 = time.time()
    for a, b in pairs:
        lhs = mval(a) * mval(b)
        rhs = sum(c * mval(w) for w, c in stuffle(a, b).items())
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("harmonic product (weight <= 8)", worst, 2e-4, t0))

    # pole order <= max part: structural on the reduction for weight <= 8,
    # plus one honest Cauchy extraction on the direct evaluator
    t0 = time.time()
    bad = 0
    for ix in admissible_indices(8):
        rf = multip.multiwp_reduce(ix)
        if any(n > max(ix) for n, _ in rf.wp_terms):
            bad += 1
    out.append(_check("pole order (symbolic, weight <= 8)", bad, 0.0, t0))
    t0 = time.time()
    coeffs = weier.laurent_coefficients(
        lambda u: multip.multiwp_direct((2, 3), u, tau, cfg), range(-6, -3), 0.2)
    worst = max(abs(v) for v in coeffs.values())
    out.append(_check("pole order (Cauchy, (2,3))", worst, 1e-3, t0))

    # repeated-index symbolic consistency: reduce((2,)*r) == closed form, r <= 4
    for r in range(1, 5):
        t0 = time.time()
        rf = multip.multiwp_reduce((2,) * r)
        closed = weier.repeated_index_closed_form(2, r)
        ok = _wp_poly_matches_reduction(closed, rf)
        out.append(_check(f"reduce (2^{r}) == closed form (symbolic)",
                          0.0 if ok else 1.0, 0.0, t0))
    return out


def _wp_poly_matches_reduction(poly: WpPolynomial, rf: multip.ReducedForm) -> bool:
    """Compare f(tau) wp + g(tau) (wp-polynomial form, degree <= 1, no wp')
    against a ReducedForm, as exact symbol combinations."""
    coeffs = dict(poly.coeffs)
    if any(t for (_, t) in coeffs):
        return False
    if any(s > 1 for (s, _) in coeffs):
        return False
    f = coeffs.get((1, 0), QuasiModular())
    g = coeffs.get((0, 0), QuasiModular())
    # wp = wp_2 - G_2, so coefficient of wp_2 is f and constant is g - f G_2
    # each generator G_k is 2 Gt_k; products expand by the stuffle
    symbols = lambda qm: stuffle_expand((c * 2 ** len(mon), tuple((k,) for k in mon))
                                        for mon, c in qm.terms.items())
    want_wp2 = symbols(f)
    want_const = symbols(g - f * QuasiModular.gen(2))
    got_wp2 = rf.coeff_combination(2)
    got_const = rf.const_combination()
    for n, _ in rf.wp_terms:
        if n != 2 and rf.coeff_combination(n):
            return False
    return got_wp2 == want_wp2 and got_const == want_const


SUITES = {
    "intro-reductions": suite_intro_reductions,
    "reduction-soundness": suite_reduction_soundness,
    "table": suite_table,
    "mzv-relations": suite_mzv_relations,
    "antipode": suite_antipode,
    "dual-pipeline": suite_dual_pipeline,
    "depth-one": suite_depth_one,
    "repeated-index": suite_repeated_index,
    "appendix-b": suite_appendix_b,
    "properties": suite_properties,
}


def run_suite(name: str, **kw) -> list[CheckResult]:
    if name == "all":
        out = []
        for s in SUITES:
            out.extend(run_suite(s, **kw))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    import inspect
    params = {s: set(inspect.signature(fn).parameters) for s, fn in SUITES.items()}
    unknown = set(kw).difference(*params.values())
    if unknown:
        raise TypeError(f"no suite takes the keyword(s) {sorted(unknown)}")
    return SUITES[name](**{k: v for k, v in kw.items() if k in params[name]})

import sys
import threading

import numpy as np
import pytest
from fractions import Fraction
from functools import partial

from multiwp.core import DEFAULT_CONFIG, ConvergenceError, EvalConfig, Index, compositions_ge2
from multiwp.qmod import QuasiModular, WpPolynomial
from multiwp import meisen, multip, weier
from multiwp.meisen import QOrderError, meis_direct, meis_qexp
from multiwp.mzv import _mzv_cached
from multiwp.kernels import LatticeRegion, ordered_sum, positive_runs
from multiwp.multip import (_multivar_split, _tilde_extrapolated, _tilde_taylor,
                            antipode_residual, fourier_c, modular_transform_check, multiwp22_fourier, multiwp_direct,
                            multiwp_multivar, multiwp_raw, multiwp_reduce, multiwp_tilde,
                            multiwp_tilde_fourier)
from multiwp import verify
from multiwp.verify import _wp_poly_matches_reduction

TAU = 2j
Z = 0.31 + 0.17j
CFG = EvalConfig(M=12, N=2000)
FINE = EvalConfig(M=12, N=8000)


def _tilde_kernel(index, xs, tau, cfg):
    """The single-level reference: the restricted sums of index[s:] at
    xs[s:], for every s, from one kernel sweep to cfg.N over the rows that
    `meisen.tilde_rows` counts."""
    xs = [complex(x) for x in xs]
    region = LatticeRegion.above_zero(tau, meisen.tilde_rows(xs, tau, cfg.M), cfg.N)
    return ordered_sum(region, xs, list(index), index[-1] == 2, 0.0)


def test_depth_one_coincides_with_wp_k():
    for k in (2, 3, 4):
        d = multiwp_direct((k,), Z, TAU, CFG)
        assert abs(d - weier.wp_k(k, Z, TAU)) < 1e-8, k


def test_double_periodicity_and_reflection():
    v = multiwp_direct((2, 2), Z, TAU, CFG)
    assert abs(multiwp_direct((2, 2), Z + 1, TAU, CFG) - v) < 1e-8
    assert abs(multiwp_direct((2, 2), Z + TAU, TAU, CFG) - v) < 1e-8
    # wp_{2,3}(-z) = (-1)^5 wp_{3,2}(z)
    a = multiwp_direct((2, 3), -Z, TAU, CFG)
    b = multiwp_direct((3, 2), Z, TAU, CFG)
    assert abs(a + b) < 1e-7


def test_raw_kernel_agrees_loosely():
    # the plain full-rectangle sum converges slowly but to the same limit
    v_raw = multiwp_raw((3, 3), Z, TAU, EvalConfig(M=30, N=12000))
    v = multiwp_direct((3, 3), Z, TAU, CFG)
    assert abs(v_raw - v) < 1e-3


def test_multiwp_raw_of_the_empty_index_is_one():
    assert multiwp_raw((), Z, TAU) == 1 + 0j == multiwp_direct((), Z, TAU)


def test_pole_guard():
    with pytest.raises(ZeroDivisionError):
        multiwp_direct((2, 2), 1 + 2 * TAU, TAU, CFG)
    with pytest.raises(ValueError):
        multiwp_direct((2, 1), Z, TAU, CFG)


def test_tilde_taylor_matches_kernel():
    xs = [0.13 + 0.07j, -0.11 + 0.05j]
    vt = _tilde_taylor(Index((2, 2)), xs, TAU, CFG.tol * 1e-4)
    vk = _tilde_kernel(Index((2, 2)), xs, TAU, EvalConfig(M=12, N=24000))[0]
    assert abs(vt - vk) < 1e-7
    assert multiwp_tilde((), [], TAU, CFG) == 1.0


def test_tilde_taylor_raises_at_its_order_cap():
    # the loop can only stop at p >= 4, so max_order = 3 must raise
    xs = [0.13 + 0.07j, -0.11 + 0.05j]
    with pytest.raises(ConvergenceError, match=r"\(2, 2\).*last shell size"):
        _tilde_taylor(Index((2, 2)), xs, TAU, 1e-12, max_order=3)


def test_tilde_auto_falls_back_to_the_kernel():
    # the Taylor series would need about order 29 here, past its cap of 26
    ix, xs = Index((2, 2, 3)), (0.3, 0.3, 0.3)
    with pytest.raises(ConvergenceError):
        _tilde_taylor(ix, xs, 1j, DEFAULT_CONFIG.tol * 1e-4)
    assert multiwp_tilde(ix, xs, 1j) == _tilde_extrapolated(ix, xs, 1j, DEFAULT_CONFIG)


@pytest.mark.parametrize("ix", [(2,), (2, 2), (3, 2, 2)])
@pytest.mark.parametrize("x", [0.3, 0.3 + 0.1j, 0.3 - 0.1j, 0.6 + 0.2j])
def test_tilde_kernel_route_extrapolates(ix, x):
    # the kernel route of multiwp_tilde at the default config against the
    # Fourier route; one kernel sweep at cfg.N alone is 1e-7 to 7e-4 off
    ref = multiwp_tilde_fourier(ix, -x, 1j)
    got = _tilde_extrapolated(Index(ix), [x] * len(ix), 1j, DEFAULT_CONFIG)
    assert abs(got - ref) <= 1e-7 * (1 + abs(ref))


_QF = multip.QFactor(2, 1, (0.1 + 0.05j, -0.07 + 0.03j), TAU)
_REMOVED = {
    "eisenstein_G-method": lambda: weier.eisenstein_G(4, TAU, method="auto"),
    "eisenstein_G-cfg": lambda: weier.eisenstein_G(4, TAU, cfg=CFG),
    "wp_k-method": lambda: weier.wp_k(2, Z, TAU, method="auto"),
    "sigma-method": lambda: weier.sigma(Z, TAU, method="auto"),
    "sigma-cfg": lambda: weier.sigma(Z, TAU, cfg=CFG),
    "weier_zeta-cfg": lambda: weier.weier_zeta(Z, TAU, cfg=CFG),
    "quasi_periods-cfg": lambda: weier.quasi_periods(TAU, cfg=CFG),
    "g_value_fn-cfg": lambda: weier.g_value_fn(TAU, cfg=CFG),
    "monotangent-method": lambda: meisen.monotangent(2, Z, method="auto"),
    "monotangent-N": lambda: meisen.monotangent(2, Z, N=2000),
    "MultitangentReduction.evaluate-method":
        lambda: meisen.multitangent_reduce((2, 3)).evaluate(Z, method="auto"),
    "multiwp_tilde-method": lambda: multiwp_tilde((2,), [0.2], TAU, method="auto"),
    # the routes that sum no lattice, and the oracles' fixed truncations
    "wp_k-cfg": lambda: weier.wp_k(2, Z, TAU, cfg=CFG),
    "wp-cfg": lambda: weier.wp(Z, TAU, cfg=CFG),
    "wp_prime-cfg": lambda: weier.wp_prime(Z, TAU, cfg=CFG),
    "eval_wp_polynomial-cfg": lambda: weier.eval_wp_polynomial(WpPolynomial.wp(), Z, TAU, cfg=CFG),
    "ReducedForm.evaluate-cfg": lambda: multiwp_reduce((2, 2)).evaluate(Z, TAU, cfg=CFG),
    "QFactor.value-cfg": lambda: _QF.value(0.0, cfg=CFG),
    "QFactor.dz-cfg": lambda: _QF.dz(0.0, cfg=CFG),
    "antipode_residual-cfg": lambda: antipode_residual(1, [0.1], TAU, cfg=CFG),
    "laurent_coefficients-nodes": lambda: weier.laurent_coefficients(abs, [0], 0.1, nodes=8),
    "_g_ball-B": lambda: weier._g_ball(42, TAU, B=18),
    "_wp_k_series-eps": lambda: weier._wp_k_series(2, Z, TAU, eps=1e-17),
    "g_function_direct-mmax": lambda: meisen.g_function_direct((2,), Z, TAU, mmax=40),
    "g_function_direct-N": lambda: meisen.g_function_direct((2,), Z, TAU, N=4000),
}
_REMOVED.update({f"{suite}-{knob}": partial(getattr(verify, suite), **{knob: None})
                 for suite, knobs in {
                     "suite_intro_reductions": ("n_points", "cfg", "tol"),
                     "suite_reduction_soundness": ("max_depth", "n_points", "tol", "cfg"),
                     "suite_mzv_relations": ("tol",),
                     "suite_antipode": ("tol", "tau"),
                     "suite_dual_pipeline": ("taus", "cfg"),
                     "suite_depth_one": ("tol_legendre",),
                     "suite_repeated_index": ("cfg",),
                     "suite_appendix_b": ("tol", "cfg"),
                     "suite_properties": ("cfg",),
                 }.items() for knob in knobs})


@pytest.mark.parametrize("call", _REMOVED.values(), ids=_REMOVED.keys())
def test_removed_parameters_raise_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_taylor_route_reuses_the_qexp_caches(monkeypatch):
    # record the indices the Taylor series visits, then start the tau-free
    # and tau-keyed tables cold and warm them through meis_qexp alone
    xs = [0.1 + 0.05j, -0.08 + 0.03j]
    seen = []

    def record(ix, *args):
        seen.append(Index(ix))
        return meis_qexp(ix, *args)

    with monkeypatch.context() as m:
        m.setattr(multip, "meis_qexp", record)
        _tilde_taylor(Index((2, 3)), xs, TAU, CFG.tol * 1e-4)
    caches = (meisen._meis_qexp_cached, meisen._amplitude_matrix, meisen._block_amplitudes,
              meisen._prefix_values, _mzv_cached)
    for cache in caches:
        cache.cache_clear()
    for ix in seen:
        meis_qexp(ix, TAU)
    misses = [c.cache_info().misses for c in caches]
    _tilde_taylor(Index((2, 3)), xs, TAU, CFG.tol * 1e-4)
    assert [c.cache_info().misses for c in caches] == misses


def test_tilde_taylor_coefficients_vs_cauchy():
    # series coefficients (n+1) Gt_{n+2} against Cauchy extraction, n <= 3
    f = lambda x: _tilde_kernel(Index((2,)), [x], TAU, EvalConfig(M=24, N=20000))[0]
    coeffs = weier.laurent_coefficients(f, [0, 1, 2, 3], 0.2)
    for n in range(4):
        want = (n + 1) * meis_qexp((n + 2,), TAU)
        assert abs(coeffs[n] - want) < 1e-6, n


def test_tilde_22_constant_term():
    # coefficient of x1^0 x2^0 is Gt_{2,2}
    rad, Q = 0.15, 10  # Q nodes alias in coefficients (n1, n2) = 0 mod Q
    th = 2 * np.pi * np.arange(Q) / Q
    acc = 0.0
    for t1 in th:
        for t2 in th:
            acc += _tilde_taylor(Index((2, 2)), [rad * np.exp(1j * t1), rad * np.exp(1j * t2)],
                                 TAU, CFG.tol * 1e-4)
    acc /= Q * Q
    assert abs(acc - meis_direct((2, 2), TAU, EvalConfig(M=24, N=12000))) < 1e-6


def test_multivar():
    # r = 1 reduces to wp_k
    assert abs(multiwp_multivar((3,), [Z], TAU, CFG) - weier.wp_k(3, Z, TAU)) < 1e-9
    # joint lattice periodicity
    z2 = 0.22 - 0.09j
    v = multiwp_multivar((2, 2), [Z, z2], TAU, CFG)
    vs = multiwp_multivar((2, 2), [Z + TAU, z2 + TAU], TAU, CFG)
    assert abs(v - vs) < 1e-7
    # diagonal specialization
    assert abs(multiwp_multivar((2, 2), [Z, Z], TAU, CFG)
               - multiwp_direct((2, 2), Z, TAU, CFG)) < 1e-12


TAU_S = 0.3 + 1.1j
SERIAL_CFG = EvalConfig(M=4, N=300)
SERIAL_INDICES = [(), (2,), (5,), (3, 2), (2, 4), (2, 2, 2), (4, 3, 2), (2, 3, 2, 2),
                  (3, 2, 4, 2)]


def _serial_split_extrapolated(index, zs, tau, cfg):
    """The six sweeps of the split evaluator one after another, then the
    split combination of each level and the Richardson step."""
    index = Index(index)
    if index.depth == 0:
        return 1.0 + 0.0j
    v = []
    for c in (EvalConfig(M=cfg.M, N=n) for n in (cfg.N, 2 * cfg.N, 4 * cfg.N)):
        fwd = _tilde_kernel(index, zs, tau, c)
        rev = _tilde_kernel(index.reversed(), [-z for z in reversed(zs)], tau, c)
        v.append(_multivar_split(index, zs, fwd, rev))
    v1, v2, v4 = v
    return (8.0 * v4 - 6.0 * v2 + v1) / 3.0


@pytest.mark.parametrize("ix", SERIAL_INDICES)
def test_concurrent_sweeps_equal_the_serial_evaluator(ix):
    z = 0.23 + 0.17j
    zs = [z + 0.07j * s for s in range(len(ix))]
    assert multiwp_direct(ix, z, TAU_S, SERIAL_CFG) == _serial_split_extrapolated(
        ix, [z] * len(ix), TAU_S, SERIAL_CFG)
    assert multiwp_multivar(ix, zs, TAU_S, SERIAL_CFG) == _serial_split_extrapolated(
        ix, zs, TAU_S, SERIAL_CFG)


def test_concurrent_callers_share_the_pool():
    zs = [0.23 + 0.17j, -0.31 + 0.4j, 0.12 - 0.27j]
    jobs = [(ix, z) for ix in SERIAL_INDICES[1:] for z in zs]
    serial = {job: _serial_split_extrapolated(job[0], [job[1]] * len(job[0]), TAU_S,
                                              SERIAL_CFG) for job in jobs}
    got, errors = {}, []

    def work(i):
        try:
            for job in jobs[i:] + jobs[:i]:
                got.setdefault(job, []).append(multiwp_direct(*job, TAU_S, SERIAL_CFG))
        except Exception as exc:  # reported below, after the join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert set(got) == set(jobs)
    for job, vals in got.items():
        assert vals == [serial[job]] * len(vals), job


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_printed_examples_symbolically():
    G2, G4, G6 = (QuasiModular.gen(k) for k in (2, 4, 6))
    cases = {
        (2, 2): WpPolynomial({(1, 0): G2, (0, 0): (G2 * G2 + 5 * G4) / 2}),
        (2, 2, 2): WpPolynomial({(1, 0): (G2 * G2 - G4) / 2,
                                 (0, 0): G2**3 / 6 + Fraction(5, 2) * G2 * G4
                                 - Fraction(14, 3) * G6}),
        (3, 3): WpPolynomial({(1, 0): -3 * G4, (0, 0): Fraction(-21, 2) * G6}),
    }
    for ix, want in cases.items():
        assert _wp_poly_matches_reduction(want, multiwp_reduce(ix)), ix


def test_reduce_2_3_symbols():
    # wp_{2,3} = Gt_2 wp_3 - 3 Gt_3 wp - 11 Gt_5 - 2 Gt_{2,3}
    # (the wp_3 = -wp'/2 normalization of the leading coefficient is the one
    #  consistent with the reduction and the lattice sum)
    rf = multiwp_reduce((2, 3))
    assert rf.coeff_combination(3) == {Index((2,)): Fraction(1)}
    assert rf.coeff_combination(2) == {Index((3,)): Fraction(-3)}
    # constant in wp_2/wp_3 form: -11 Gt5 - 2 Gt_{2,3} + 3 G2 Gt3 expanded
    assert rf.const_combination() == {Index((5,)): Fraction(-5),
                                      Index((2, 3)): Fraction(4),
                                      Index((3, 2)): Fraction(6)}


def test_reduce_weight_homogeneity_and_poles():
    for ix in [(2, 2), (2, 3), (4, 2), (2, 2, 2), (3, 2, 3)]:
        rf = multiwp_reduce(ix)
        k = sum(ix)
        for n, terms in rf.wp_terms:
            assert n <= max(ix)  # pole order bound
            for _, idxs in terms:
                assert sum(i.weight for i in idxs) + n == k
        for _, idxs in rf.const_terms:
            assert sum(i.weight for i in idxs) == k


def test_reduce_reversal_view():
    rf = multiwp_reduce((2, 3, 2))
    nat = rf.natural_terms()
    printed = dict(rf.wp_terms)
    for n, terms in nat["wp"].items():
        assert {tuple(ix.reversed() for ix in t) for _, t in terms} == \
            {t for _, t in printed[n]}


def test_reduce_matches_direct_numerically():
    for ix in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 2), (2, 4), (3, 2, 2)]:
        rf = multiwp_reduce(ix)
        got = rf.evaluate(Z, TAU)
        want = multiwp_direct(ix, Z, TAU, FINE)
        assert abs(got - want) < 1e-6, ix


ROW_CFG = EvalConfig(M=12, N=2000)
ROW_TAUS = [0.5 + 0.6j, 0.3 + 1.1j, 2j]  # at the first the rows need 13 > M
ROW_INDICES = [ix for w in range(2, 9) for ix in compositions_ge2(w) if ix.depth <= 4]


def _full_rows_direct(index, z, tau, cfg):
    """multiwp_direct's split and Richardson step over all cfg.M rows."""
    region = LatticeRegion.above_zero(tau, cfg.M, 4 * cfg.N)
    levels = [positive_runs(cfg.M, 4 * cfg.N, cfg.M, n) for n in (4 * cfg.N, 2 * cfg.N, cfg.N)]
    r = index.depth
    fwd = ordered_sum(region, [z] * r, list(index), index[-1] == 2, 0.0, levels)
    rev = ordered_sum(region, [-z] * r, list(index.reversed()), index[0] == 2, 0.0, levels)
    v4, v2, v1 = (_multivar_split(index, [z] * r, f, b) for f, b in zip(fwd, rev))
    return (8.0 * v4 - 6.0 * v2 + v1) / 3.0


@pytest.mark.parametrize("tau", ROW_TAUS)
def test_direct_rows_chosen_from_tau_lose_nothing(tau):
    # every admissible index of weight <= 8 and depth <= 4, at z inside the
    # period cell on both sides of 0 and at an unreduced z
    for z in (0.23 + 0.17j, 0.2 - 0.45j * tau.imag, 0.23 + 0.17j + 2 * tau):
        for ix in ROW_INDICES:
            want = multiwp_reduce(ix).evaluate(z, tau)
            full = abs(_full_rows_direct(ix, z, tau, ROW_CFG) - want)
            got = abs(multiwp_direct(ix, z, tau, ROW_CFG) - want)
            assert got <= full + 1e-12 * (1 + abs(want)), (ix, z)


def test_reduced_evaluate_raises_where_meis_qexp_does():
    # below Im tau = 0.108 no coefficient q-series fits the q-term cap
    with pytest.raises(QOrderError, match="above the cap of 64"):
        meis_qexp((2, 2), 0.1j)
    with pytest.raises(QOrderError, match="above the cap of 64"):
        multiwp_reduce((2, 2)).evaluate(0.03 + 0.02j, 0.1j)


def test_harmonic_product_numeric():
    from multiwp.core import stuffle
    vals = {}

    def mv(ix):
        if ix not in vals:
            vals[ix] = multiwp_direct(ix, Z, TAU, CFG)
        return vals[ix]

    for a, b in [((2,), (3,)), ((2,), (2,)), ((2, 2), (2,)), ((3,), (3,))]:
        lhs = mv(Index(a)) * mv(Index(b))
        rhs = sum(c * mv(w) for w, c in stuffle(a, b).items())
        assert abs(lhs - rhs) < 2e-5, (a, b)


def test_generating_function_identity():
    # Y^{hr} coefficient of sigma(z)^{-h} prod_j sigma(z - mu^j Y) equals
    # (-1)^r wp_{h^r}(z), h = 2, 3
    rng = np.random.default_rng(5)
    for h in (2, 3):
        mu = np.exp(2j * np.pi / h)
        z = complex(rng.uniform(0.15, 0.3), rng.uniform(0.05, 0.2))

        def f(Y):
            out = weier.sigma(z, TAU) ** float(-h)
            for j in range(h):
                out *= weier.sigma(z - mu**j * Y, TAU)
            return out

        rmax = 4 if h == 2 else 3
        coeffs = weier.laurent_coefficients(f, [h * r for r in range(1, rmax + 1)], 0.12)
        for r in range(1, rmax + 1):
            want = (-1) ** r * multiwp_direct((h,) * r, z, TAU, CFG)
            assert abs(coeffs[h * r] - want) < 2e-5, (h, r)


# ---------------------------------------------------------------------------
# antipode residual, Fourier expansion, modular transformation
# ---------------------------------------------------------------------------

def test_antipode_residual():
    rng = np.random.default_rng(7)
    assert antipode_residual(1, [0.1 + 0.05j], TAU) == 0
    for r, tol in [(2, 1e-6), (3, 1e-5)]:
        xs = [complex(a, b) for a, b in
              zip(0.08 * rng.standard_normal(r), 0.08 * rng.standard_normal(r))]
        assert abs(antipode_residual(r, xs, TAU)) < tol
    with pytest.raises(ValueError):
        antipode_residual(2, [0.1, 0.1], TAU)


def test_antipode_residual_by_the_exact_derivative():
    # suite_antipode's draws at seeds 5 and 7; the suite itself keeps its
    # tolerances of 1e-6 and 1e-5
    for seed, tau in [(5, 2j), (7, TAU)]:
        rng = np.random.default_rng(seed)
        for r in (1, 2, 3):
            xs = [complex(a, b) for a, b in
                  zip(0.08 * rng.standard_normal(r), 0.08 * rng.standard_normal(r))]
            assert abs(antipode_residual(r, xs, tau)) < 1e-11, (seed, r)
    # dz against a central difference of value
    q, z, h = multip.QFactor(3, 2, (0.05 + 0.02j, -0.03 + 0.04j, 0.06 - 0.01j), TAU), 0.01j, 1e-4
    stencil = (-q.value(z + 2 * h) + 8 * q.value(z + h) - 8 * q.value(z - h)
               + q.value(z - 2 * h)) / (12 * h)
    assert abs(q.dz(z) - stencil) < 1e-9 * (1 + abs(stencil))


def test_fourier_coefficients():
    assert fourier_c(1, 0) == (Fraction(0), 2)
    assert fourier_c(2, 0) == (Fraction(0), 4)
    assert fourier_c(1, 1) == (Fraction(1), 0)
    assert fourier_c(2, 2) == (Fraction(1), 0)
    # c_{2,1} = -(1/12) (2 pi i)^2 = pi^2/3, fixed against the zeta({2}^l) data
    frac, e = fourier_c(2, 1)
    assert frac == Fraction(-1, 12) and e == 2


def test_fourier_expansion_matches_direct():
    z = 0.2 + 0.4j
    assert abs(multiwp22_fourier(1, z, TAU) - weier.wp_k(2, z, TAU)) < 1e-9
    for r in (2, 3):
        vf = multiwp22_fourier(r, z, TAU)
        vd = multiwp_direct((2,) * r, z, TAU, FINE)
        assert abs(vf - vd) < 1e-6, r
    with pytest.raises(ValueError):
        multiwp22_fourier(1, 0.2 - 0.4j, TAU)


def test_modular_transformation():
    z = 0.3 + 0.2j
    assert modular_transform_check(0, (0, -1, 1, 0), z, TAU, CFG) == 0.0
    for r in (1, 2):
        assert modular_transform_check(r, (1, 1, 0, 1), z, TAU, FINE) < 1e-6
        assert modular_transform_check(r, (0, -1, 1, 0), z, TAU, FINE) < 1e-6
    with pytest.raises(ValueError):
        modular_transform_check(1, (1, 1, 1, 1), z, TAU, CFG)


def test_repeated_index_consistency_with_reduce():
    for r in (1, 2, 3, 4):
        closed = weier.repeated_index_closed_form(2, r)
        assert _wp_poly_matches_reduction(closed, multiwp_reduce((2,) * r)), r


def test_qfactor_degenerate_and_pole_guard():
    from multiwp.multip import QFactor
    xs = (0.1 + 0.05j, -0.07 + 0.03j)
    q1 = QFactor(2, 1, xs, TAU)
    # Q_{2,1} is a single tilde factor: tilde_2(z - x_2)
    z = 0.02 + 0.01j
    want = _tilde_taylor(Index((2,)), [z - xs[1]], TAU, 1e-12)
    assert abs(q1.value(z) - want) < 1e-12
    with pytest.raises(ValueError, match="needs all"):  # |z - x_2| = 0.9 > 0.45
        QFactor(2, 1, (0.1, 0.9), TAU).value(0.0)
    with pytest.raises(ZeroDivisionError):
        multiwp_tilde((2,), [1.0 + 0j], TAU, CFG)
    with pytest.raises(ZeroDivisionError):
        multiwp_tilde((2,), [complex(TAU)], TAU, CFG)
    # arguments at 0 or on the non-positive part of the lattice are regular
    assert np.isfinite(multiwp_tilde((2,), [0.0], TAU, CFG).real)
    assert np.isfinite(multiwp_tilde((2,), [-1.0 + 0j], TAU, EvalConfig(M=12, N=4000)).real)


def test_closed_form_argument_errors():
    with pytest.raises(ValueError):
        weier.repeated_index_closed_form(1, 2)
    with pytest.raises(ValueError):
        weier.repeated_index_closed_form(2, 0)


def test_tilde_fourier_spot_check():
    # restricted wp at reflected arguments via Hurwitz zetas + multitangent blocks
    z = 0.23 + 0.6j
    for ix in [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]:
        vf = multiwp_tilde_fourier(ix, z, TAU)
        vk = _tilde_kernel(Index(ix), [-z] * len(ix), TAU, EvalConfig(M=16, N=24000))[0]
        assert abs(vf - vk) < 1e-7, ix
    # at Im z <= 0 the kernel carries a 1/N error (5e-4 at Im z = -1.5), so the
    # reference is its Richardson extrapolation 2 K(2N) - K(N)
    for z in (0.23 - 0.6j, 0.31, 0.23 - 1.5j):
        for ix in [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]:
            vf = multiwp_tilde_fourier(ix, z, TAU)
            k1, k2 = (_tilde_kernel(Index(ix), [-z] * len(ix), TAU, EvalConfig(M=16, N=n))[0]
                      for n in (24000, 48000))
            assert abs(vf - (2 * k2 - k1)) < 1e-7, (z, ix)
    for z in (0.2 - 2j, 0.2 - 2.5j, 0.2 + 2j, 0.2 + 2.5j):  # outside -Im tau < Im z < Im tau
        with pytest.raises(ValueError, match="strip violated"):
            multiwp_tilde_fourier((2,), z, TAU)


def test_tilde_fourier_depth_3_and_4():
    z = 0.23 + 0.6j
    assert multiwp_tilde_fourier((), z, TAU) == 1
    for ix in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (3, 2, 2, 3)]:
        vf = multiwp_tilde_fourier(ix, z, TAU)
        vk = _tilde_kernel(Index(ix), [-z] * len(ix), TAU, EvalConfig(M=16, N=24000))[0]
        assert abs(vf - vk) < 1e-7, ix

import numpy as np
import pytest
from fractions import Fraction

from multiwp.core import DEFAULT_CONFIG, ConvergenceError, EvalConfig
from multiwp.qmod import QuasiModular, WpPolynomial
from multiwp import weier
from multiwp.weier import (eisenstein_G, eval_wp_polynomial, f_coeff, g_hat_coeff,
                           laurent_coefficients, multi_to_deriv_form,
                           quasi_periods, repeated_index_closed_form, sigma,
                           weier_zeta, wp, wp_deriv_poly, wp_deriv_trace_form,
                           wp_k, wp_prime, wp2_deriv)

TAU = 2j
Z = 0.31 + 0.17j


def test_eisenstein_odd_vanish_and_errors():
    assert eisenstein_G(5, 1j) == 0
    assert eisenstein_G(7, 0.3 + 1.2j) == 0
    with pytest.raises(ValueError):
        eisenstein_G(1, 1j)
    with pytest.raises(ValueError):
        eisenstein_G(4, 1.0)


def test_eisenstein_fast_vs_lattice():
    # every even G_k the q-series serves, each at two tau
    cfg = EvalConfig(M=400, N=400)
    for tau in (1j, 0.3 + 1.1j):
        for k in range(2, 41, 2):
            fast = eisenstein_G(k, tau)
            slow = weier._eisenstein_G_lattice(k, tau, cfg)
            assert abs(fast - slow) < 1e-8 * (1 + abs(fast)), (k, tau)


def test_classical_weight8_identity():
    # G_8 = (3/7) G_4^2, independent classical oracle for the q-series
    for tau in (1j, 2j, 0.4 + 1.1j):
        assert abs(eisenstein_G(8, tau) - 3 / 7 * eisenstein_G(4, tau) ** 2) < 1e-12


def test_g4_at_i_known_value():
    # frozen from the (M, N) = (600, 600) lattice oracle
    assert abs(eisenstein_G(4, 1j) - 3.1512120021538985) < 1e-12
    # G_6(i) = 0: i is fixed by S and (c tau + d)^6 = i^6 = -1
    assert abs(eisenstein_G(6, 1j)) < 1e-13


def test_qmod_normalization():
    # G_10 = (5/11) G_4 G_6; G_12 = (18 G_4^3 + 25 G_6^2)/143
    G4, G6 = QuasiModular.gen(4), QuasiModular.gen(6)
    assert QuasiModular.gen(8).normalize() == Fraction(3, 7) * G4 * G4
    assert QuasiModular.gen(10).normalize() == Fraction(5, 11) * G4 * G6
    assert QuasiModular.gen(12).normalize() == (18 * G4**3 + 25 * G6**2) / 143
    assert QuasiModular.gen(9).normalize() == QuasiModular()


def test_sigma_basics():
    assert sigma(0, TAU) == 0
    for z in (Z, 0.1 - 0.3j, 0.7 + 0.9j):
        assert abs(sigma(-z, TAU) + sigma(z, TAU)) < 1e-12 * (1 + abs(sigma(z, TAU)))
    # dual formula cross-check
    s1 = weier._sigma_product(0.3 + 0j, 1j, DEFAULT_CONFIG)
    s2 = sigma(0.3, 1j)
    assert abs(s1 - s2) < 1e-8


def test_sigma_quasi_periodicity_consistency():
    # sigma at a large argument agrees with the direct product form
    zb = 1.7 + 2.3j
    cfg = EvalConfig(M=160, N=1600)
    rel = abs(weier._sigma_product(zb, TAU, cfg) - sigma(zb, TAU)) / abs(sigma(zb, TAU))
    assert rel < 2e-6


def test_zeta_odd_and_laurent():
    for z in (Z, 0.2 - 0.1j):
        assert abs(weier_zeta(-z, 1 + 2j) + weier_zeta(z, 1 + 2j)) < 1e-12
    c = laurent_coefficients(lambda u: weier_zeta(u, TAU), [-1, 1, 3, 5], 0.25)
    assert abs(c[-1] - 1) < 1e-12
    assert abs(c[1] + eisenstein_G(2, TAU)) < 1e-12
    assert abs(c[3] + eisenstein_G(4, TAU)) < 1e-12
    assert abs(c[5] + eisenstein_G(6, TAU)) < 1e-11


def test_legendre_relation():
    for tau in (1j, (1 + 1j * np.sqrt(3)) / 2, 0.3 + 1.4j):
        e1, et = quasi_periods(tau)
        assert abs(e1 * tau - et - 2j * np.pi) < 1e-10


def test_wp_k_basics():
    assert abs(wp_k(2, Z, TAU) - wp(Z, TAU) - eisenstein_G(2, TAU)) < 1e-13
    for z in (Z, 0.4 + 0.3j):
        assert abs(wp_k(3, z, TAU) + 0.5 * wp_prime(z, TAU)) < 1e-12
    # lattice-sum oracle
    v1 = wp_k(4, 0.4, 1j)
    v2 = weier._wp_k_rows(4, 0.4 + 0j, 1j)
    assert abs(v1 - v2) < 1e-10
    # periodicity through the quasi-period reduction
    assert abs(wp_k(2, Z + 3 + 2 * TAU, TAU) - wp_k(2, Z, TAU)) < 1e-12
    with pytest.raises(ValueError):
        wp_k(1, Z, TAU)
    with pytest.raises(ZeroDivisionError):
        wp_k(2, 1 + 2 * TAU, TAU)


def test_duplication_and_famous_identity():
    y = 0.23 + 0.11j
    lhs = -2 * wp_k(3, y, TAU)
    rhs = -sigma(2 * y, TAU) / sigma(y, TAU) ** 4
    assert abs(lhs - rhs) < 1e-12
    zz, Y = 0.31 + 0.17j, 0.4 + 0.3j
    lhs = wp_k(2, Y, TAU) - wp_k(2, zz, TAU)
    rhs = sigma(zz + Y, TAU) * sigma(zz - Y, TAU) / (sigma(Y, TAU) ** 2 * sigma(zz, TAU) ** 2)
    assert abs(lhs - rhs) < 1e-12


def test_sigma_three_term_identity():
    # sigma(2z) prod_j sigma(mu_3^j Y) = sigma(z) prod sigma(z + mu_3^j Y)
    #                                  - sigma(z) prod sigma(z - mu_3^j Y)
    mu = np.exp(2j * np.pi / 3)
    rng = np.random.default_rng(3)
    for _ in range(3):
        z = complex(rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.25))
        Y = complex(rng.uniform(0.05, 0.2), rng.uniform(-0.15, 0.15))
        lhs = sigma(2 * z, TAU)
        for j in range(3):
            lhs *= sigma(mu**j * Y, TAU)
        p1 = sigma(z, TAU)
        p2 = sigma(z, TAU)
        for j in range(3):
            p1 *= sigma(z + mu**j * Y, TAU)
            p2 *= sigma(z - mu**j * Y, TAU)
        assert abs(lhs - (p1 - p2)) < 1e-12


def test_zeta_sigma_identity():
    # 2 s(z)s(Y)s(z+Y)s(z-Y) sum_i zeta(mu^i Y) prod_j s(mu^j Y)
    #   = s(z)^3 prod s(Y + mu^j Y) - s(Y)^3 prod s(z - mu^j Y) - s(Y)^3 prod s(z + mu^j Y)
    mu = np.exp(2j * np.pi / 3)
    z, Y = 0.26 + 0.13j, 0.11 - 0.07j
    s = lambda u: sigma(u, TAU)
    zsum = sum(weier_zeta(mu**i * Y, TAU) for i in range(3))
    prod_mu = np.prod([s(mu**j * Y) for j in range(3)])
    lhs = 2 * s(z) * s(Y) * s(z + Y) * s(z - Y) * zsum * prod_mu
    rhs = (s(z) ** 3 * np.prod([s(Y + mu**j * Y) for j in range(3)])
           - s(Y) ** 3 * np.prod([s(z - mu**j * Y) for j in range(3)])
           - s(Y) ** 3 * np.prod([s(z + mu**j * Y) for j in range(3)]))
    assert abs(lhs - rhs) < 1e-12


def test_wp_deriv_poly_examples():
    G4, G6 = QuasiModular.gen(4), QuasiModular.gen(6)
    assert wp_deriv_poly(2) == WpPolynomial({(2, 0): QuasiModular.const(6),
                                             (0, 0): -30 * G4})
    assert wp_deriv_poly(3) == WpPolynomial({(3, 0): QuasiModular.const(120),
                                             (1, 0): -1080 * G4,
                                             (0, 0): -1680 * G6})
    import math
    f10 = math.factorial(10)
    assert wp_deriv_poly(6) == WpPolynomial({
        (6, 0): QuasiModular.const(11 * f10), (4, 0): -198 * f10 * G4,
        (3, 0): -330 * f10 * G6, (2, 0): 693 * f10 * G4**2,
        (1, 0): 1710 * f10 * G4 * G6,
        (0, 0): 700 * f10 * G6**2 - 90 * f10 * G4**3})


def _hand_deriv_poly(k):
    """wp_2^{(2k-2)} by the hand-expanded recursion: if
    wp_2^{(2k-2)} = sum_q a_q wp^q then
    wp_2^{(2k)} = sum_q a_q (2q(2q+1) wp^{q+1} - 30q(2q-1) G_4 wp^{q-1}
                            - 140 q(q-1) G_6 wp^{q-2})."""
    if k == 1:
        return WpPolynomial({(1, 0): QuasiModular.const(1), (0, 0): QuasiModular.gen(2)})
    G4, G6 = QuasiModular.gen(4), QuasiModular.gen(6)
    out = WpPolynomial()
    for (q, t), c in _hand_deriv_poly(k - 1).coeffs.items():
        assert t == 0  # even derivatives stay in Q[wp]
        if q == 0:
            continue
        out = out + WpPolynomial({(q + 1, 0): c * (2 * q * (2 * q + 1))})
        out = out + WpPolynomial({(q - 1, 0): c * (-30 * q * (2 * q - 1)) * G4})
        if q >= 2:
            out = out + WpPolynomial({(q - 2, 0): c * (-140 * q * (q - 1)) * G6})
    return out


def test_wp_deriv_poly_structure():
    import math
    for k in range(1, 9):
        p = wp_deriv_poly(k)
        assert p.coeffs[(k, 0)] == QuasiModular.const(math.factorial(2 * k - 1))
        assert p.weight() == 2 * k
        # the repeated .dz() matches the hand-expanded recursion
        assert p == _hand_deriv_poly(k)


def test_wp2_deriv_odd_orders():
    # wp_2^(1) = wp', and wp_3 = -wp'/2 symbolically
    assert wp2_deriv(1) == WpPolynomial.wp_prime()
    p = repeated_index_closed_form(3, 1)
    assert p == WpPolynomial({(0, 1): QuasiModular.const(Fraction(-1, 2))})


def test_trace_forms_match_table():
    for k in range(1, 10):
        tf = wp_deriv_trace_form(k)
        want = wp_deriv_poly(k).normalize()
        assert tf["multi_wp"].normalize() == want
        assert tf["classical"].normalize() == want


def test_repeated_index_coeffs():
    G2, G4, G6 = (QuasiModular.gen(k) for k in (2, 4, 6))
    assert f_coeff(1) == QuasiModular.const(1)
    assert f_coeff(2) == G2
    assert f_coeff(3) == (G2 * G2 - G4) / 2
    assert g_hat_coeff(1) == G2
    assert g_hat_coeff(2) == (G2 * G2 + 5 * G4) / 2
    assert g_hat_coeff(3) == G2**3 / 6 + Fraction(5, 2) * G2 * G4 - Fraction(14, 3) * G6


def test_closed_forms_match_deriv_route():
    for h, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3)]:
        closed = repeated_index_closed_form(h, r)
        routed = multi_to_deriv_form(h, r)
        assert closed.normalize() == routed.normalize(), (h, r)


def test_wp_form_two_structure():
    # wp_{h^r} lies in wp' Q[wp] + Q[wp] with 2s + 3t <= h and homogeneous weight
    for h, r in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        p = multi_to_deriv_form(h, r)
        assert p.weight() == h * r
        assert all(2 * s + 3 * t <= h for (s, t) in p.coeffs)


def test_eval_wp_polynomial():
    p = wp_deriv_poly(2)  # wp'' = 6 wp^2 - 30 G4
    got = eval_wp_polynomial(p, Z, TAU)
    want = 6 * wp(Z, TAU) ** 2 - 30 * eisenstein_G(4, TAU)
    assert abs(got - want) < 1e-10


def test_zeta_pole_guard():
    with pytest.raises(ZeroDivisionError):
        weier_zeta(1 + 2 * TAU, TAU)
    assert sigma(1 + 2 * TAU, TAU) == 0  # sigma vanishes on the lattice


def test_sigma_modular_transformation():
    # sigma(z/(c tau + d); (a tau + b)/(c tau + d))
    #   = (c tau + d)^{-1} exp(pi i c z^2/(c tau + d)) sigma(z; tau)
    z = 0.27 + 0.13j
    for (a, b, c, d) in [(0, -1, 1, 0), (1, 0, 1, 1), (2, 1, 1, 1)]:
        cz = c * TAU + d
        lhs = sigma(z / cz, (a * TAU + b) / cz)
        rhs = np.exp(1j * np.pi * c * z * z / cz) / cz * sigma(z, TAU)
        assert abs(lhs - rhs) < 1e-11, (a, b, c, d)


def test_series_caps_raise():
    tau = 0.3 + 1.1j
    rmin = weier.min_lattice_norm(tau)
    with pytest.raises(ConvergenceError, match="_wp_k_series"):
        weier._wp_k_series(3, 0.99 * rmin, tau)
    with pytest.raises(ConvergenceError, match="_sigma_core"):
        weier._sigma_core(0.99 * rmin, tau, 10.0 * rmin)
    with pytest.raises(ConvergenceError, match="_zeta_core"):
        weier._zeta_core(0.99 * rmin, tau, 10.0 * rmin)
    with pytest.raises(ConvergenceError, match="lipschitz_psi"):
        weier.lipschitz_psi(2, 0.3 + 1e-6j)
    # just above the cap's edge the series still converges
    z = 0.3 + 2e-4j
    direct = np.sum((z + np.arange(-200000, 200001)) ** -2.0)
    assert abs(weier.lipschitz_psi(2, z) - direct) < 1e-4 * abs(direct)


def test_wp_k_rows_cap_raises(monkeypatch):
    # at Im tau = 0.05 the rows decay slowly, but converge inside the cap
    z, tau = 0.3 + 0.02j, 0.1 + 0.05j
    v = wp_k(4, z, tau)
    with monkeypatch.context() as mp:
        mp.setattr(weier, "_WP_K_ROWS_CAP", 600)
        assert abs(v - weier._wp_k_rows(4, z, tau)) < 1e-14 * abs(v)
    # at Im tau = 0.01 they would need about 750 rows
    with pytest.raises(ConvergenceError, match=r"wp_4 rows at z0 = \(0\.3\+0\.002j\), "
                       r"tau = \(0\.1\+0\.01j\) not converged in the cap of 400 rows"):
        wp_k(4, 0.3 + 0.002j, 0.1 + 0.01j)


def test_g_even_qexp_cap_raises_for_this_k():
    # 4096 terms reach 1e-19 for G_2 down to Im tau ~ 0.0022, for G_40 only
    # down to ~ 0.013; between the two, G_2 sums and G_40 names k, tau, bound
    tau = 0.1 + 0.005j
    with pytest.raises(ConvergenceError, match=r"G_40 q-series at tau = \(0\.1\+0\.005j\)"):
        weier._g_even_qexp(40, tau)
    with pytest.raises(ConvergenceError, match="term bound"):
        eisenstein_G(40, tau)
    with pytest.raises(ConvergenceError, match="G_2 q-series"):
        weier._g_even_qexp(2, 0.1 + 0.002j)
    assert np.isfinite(weier._g_even_qexp(2, tau))
    # at Im tau = 0.02 the cap is not reached for any k <= 40
    assert np.isfinite(weier._g_even_qexp(40, 0.1 + 0.02j))

"""Depth-one analytic layer: Eisenstein series G_k, the (modified)
Weierstrass sigma / zeta / wp functions and their normalized derivatives
wp_k, Laurent-coefficient extraction, even-derivative polynomials, and the
closed forms for repeated-index lattice sums.

Conventions.  The lattice is L = Z*tau + Z with Im(tau) > 0 and lattice
sums are Eisenstein-ordered (inner limit over n, outer over m).  sigma and
zeta carry the extra exp(-G_2 z^2 / 2) normalization, so that

    zeta(z)  = 1/z - sum_{k even >= 2} G_k z^{k-1},
    eta_1    = zeta(z+1) - zeta(z)   = 0,
    eta_tau  = zeta(z+tau) - zeta(z) = -2 pi i,

and Legendre's relation reads eta_1 * tau - eta_tau = 2 pi i.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, log, pi

import numpy as np

from .core import ConvergenceError, EvalConfig, beta, beta_prime, partition_trace, phi_log
from .mzv import _em_power_list, _plist_eval, zeta_even_exact
from .qmod import QuasiModular, WpPolynomial

TWO_PI_I = 2j * pi


def _check_tau(tau) -> complex:
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return tau


def min_lattice_norm(tau: complex) -> float:
    """Length of the shortest nonzero vector of Z*tau + Z."""
    tau = complex(tau)
    best = float("inf")
    for m in range(-2, 3):
        for n in range(-2, 3):
            if m == 0 and n == 0:
                continue
            best = min(best, abs(m * tau + n))
    return best


def lattice_reduce(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Write z = z0 + a*tau + b with z0 in the centered fundamental cell."""
    z, tau = complex(z), complex(tau)
    x = z.imag / tau.imag
    y = z.real - x * tau.real
    a, b = round(x), round(y)
    return z - a * tau - b, a, b


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

def _lipschitz_amplitude(k: int) -> complex:
    """(-2 pi i)^k / (k-1)!, the factor of the Lipschitz series
    Psi_k(x) = amplitude_k sum_{d>0} d^{k-1} e^{2 pi i d x}, Im(x) > 0."""
    return (-TWO_PI_I) ** k / factorial(k - 1)


def _g_log_term(k: int, n: int, aq: float) -> float:
    """log of |amplitude_k| n^{k-1} |q|^n: the size the stopping test of
    `_g_even_qexp` takes for the n-th term of the G_k q-series."""
    return log(abs(_lipschitz_amplitude(k))) + (k - 1) * log(n) + n * log(aq)


def _g_even_qexp(k: int, tau: complex) -> complex:
    """Even G_k = 2 zeta(k) + 2 amplitude_k sum_n sigma_{k-1}(n) q^n (k <= 40),
    zeta(k) from Euler's closed form; raises ConvergenceError when 4096
    terms do not bring this k's term below 1e-19."""
    q = np.exp(TWO_PI_I * tau)
    aq = abs(q)
    # n doubles until the term is below 1e-19 for every even k <= 40, which
    # bounds this k's term too, or until the cap
    nmax = 16
    while nmax < 4096 and _g_log_term(40, nmax, aq) >= log(1e-19):
        nmax *= 2
    if _g_log_term(k, nmax, aq) >= log(1e-19):
        raise ConvergenceError(
            f"_g_even_qexp: G_{k} q-series at tau = {complex(tau)} not converged by "
            f"n = {nmax}: term bound {exp(min(700.0, _g_log_term(k, nmax, aq))):.2e} "
            f"exceeds 1e-19")
    n = np.arange(1, nmax + 1)
    sig = np.zeros(nmax + 1)
    for d in range(1, nmax + 1):
        sig[d::d] += np.exp((k - 1) * np.log(d))
    zk = float(zeta_even_exact(k)) * pi**k
    return 2 * zk + 2 * _lipschitz_amplitude(k) * complex(np.sum(sig[1:] * q**n))


def _g_ball(k: int, tau: complex) -> complex:
    """G_k by the direct lattice ball |m|, |n| <= 18 (high k: brutal |w|^-k decay)."""
    m = np.arange(-18, 19)
    w = (m[:, None] * tau + m[None, :]).ravel()
    w = w[np.abs(w) > 1e-12]
    return complex(np.sum(w ** float(-k)))


def eisenstein_G(k: int, tau: complex) -> complex:
    """Eisenstein-ordered G_k(tau); zero for odd k >= 3.  The q-series for
    k <= 40, a small lattice ball above; `_eisenstein_G_lattice` is the
    truncated double sum that the tests check both against."""
    if k < 2:
        raise ValueError("eisenstein_G needs k >= 2")
    tau = _check_tau(tau)
    if k % 2 == 1:
        return 0.0 + 0.0j
    return _g_even(k, tau)


@lru_cache(maxsize=40000)
def _g_even(k: int, tau: complex) -> complex:
    """Even G_k(tau); the 40000 most recently used (k, tau) are cached."""
    return _g_even_qexp(k, tau) if k <= 40 else _g_ball(k, tau)


def _row_sum(x: complex, N: int, k: int) -> complex:
    """sum_{n in Z} (x + n)^-k, exact row value via symmetric sum + EM tails."""
    n = np.arange(-N + 1, N, dtype=float)
    s = complex(np.sum((x + n) ** float(-k)))
    tail = _em_power_list(k)
    s += _plist_eval(tail, x + N)
    s += (-1) ** k * _plist_eval(tail, -x + N)
    return s


def _eisenstein_G_lattice(k: int, tau: complex, cfg: EvalConfig) -> complex:
    """G_k(tau) by the truncated double sum, rows with Euler-Maclaurin tails."""
    total = 0.0 + 0.0j
    # m = 0 row: n != 0
    n = np.arange(1, cfg.N, dtype=float)
    tail = _plist_eval(_em_power_list(k), float(cfg.N))
    total += (1 + (-1) ** k) * (complex(np.sum(n ** float(-k))) + tail)
    for m in range(1, cfg.M):
        total += _row_sum(m * tau, cfg.N, k)
        total += _row_sum(-m * tau, cfg.N, k)
    return total


def lipschitz_psi(k: int, x: complex) -> complex:
    """Psi_k(x) = sum_{n in Z} (x+n)^-k = amplitude_k sum_{d>0} d^{k-1} xi^d
    for Im(x) > 0 (sign convention fixed against the direct sum); raises
    ConvergenceError when the series needs more than 40000 terms."""
    xi = np.exp(TWO_PI_I * complex(x))
    if abs(xi) >= 1:
        raise ValueError("lipschitz_psi needs Im(x) > 0")
    if xi == 0:  # e^{2 pi i x} underflows: every term is 0 in float64
        return 0j
    D = max(8, int(np.ceil(log(1e-18) / log(abs(xi)))) + k * 8)
    if D > 40000:
        last = exp(min(700.0, (k - 1) * log(40000) + 40000 * log(abs(xi))))
        raise ConvergenceError(
            f"lipschitz_psi({k}, {complex(x)}) needs {D} terms, more than 40000: "
            f"term 40000 has size {last:.2e}")
    d = np.arange(1, D + 1, dtype=float)
    series = complex(np.sum(d ** (k - 1) * xi**d))
    return _lipschitz_amplitude(k) * series


# ---------------------------------------------------------------------------
# wp_k, wp, sigma, zeta
# ---------------------------------------------------------------------------

def wp_k(k: int, z: complex, tau: complex) -> complex:
    """wp_k(z; tau): 1/z^k plus the (-1)^k/(k-1)! normalized (k-2)-th
    derivative structure; wp_2 = wp + G_2.  Fully periodic, poles on L.  The
    Taylor series for |z0| <= 0.72 rmin, else the row sums `_wp_k_rows`."""
    if k < 2:
        raise ValueError("wp_k needs k >= 2")
    tau = _check_tau(tau)
    z0, _, _ = lattice_reduce(z, tau)
    if z0 == 0:
        raise ZeroDivisionError("wp_k pole: z is a lattice point")
    if abs(z0) <= 0.72 * min_lattice_norm(tau):
        return _wp_k_series(k, z0, tau)
    return _wp_k_rows(k, z0, tau)


def _capped_series(terms, eps: float, what: str) -> complex:
    """Sum of ``terms`` up to the first three in a row below eps (1 + |sum|);
    raises ConvergenceError naming ``what`` when the terms run out first."""
    acc = 0.0 + 0.0j
    small = count = 0
    t = 0.0
    for count, t in enumerate(terms, 1):
        acc += t
        small = small + 1 if abs(t) < eps * (1 + abs(acc)) else 0
        if small >= 3:
            return acc
    raise ConvergenceError(f"{what} not converged in {count} terms: last term {abs(t):.2e}")


def _wp_k_series(k: int, z0: complex, tau: complex) -> complex:
    """Taylor series of wp_k - 1/z^k at 0, to three terms in a row below
    1e-17 (1 + |sum|) and m <= 400 (the m = 0 term is (-1)^k G_k); raises
    ConvergenceError when that cap comes first."""
    terms = (comb(m + k - 1, k - 1) * eisenstein_G(m + k, tau) * z0**m
             for m in range(k % 2, 401, 2))
    acc = _capped_series(terms, 1e-17, f"_wp_k_series: wp_{k} series at z0 = {z0}")
    return z0 ** float(-k) + (-1) ** k * acc


# rows |m| < cap of `_wp_k_rows`: enough for Im tau down to about 0.017
_WP_K_ROWS_CAP = 400


def _wp_k_rows(k: int, z0: complex, tau: complex) -> complex:
    """Eisenstein-ordered row sums: wp_k(z) = sum_m Psi_k(z - m tau), each
    row `_row_sum` at N = 800, to the first pair of rows below
    1e-18 (1 + |sum|); raises ConvergenceError when the rows
    |m| < `_WP_K_ROWS_CAP` end first."""
    total = _row_sum(z0, 800, k)
    for m in range(1, _WP_K_ROWS_CAP):
        t1 = _row_sum(z0 - m * tau, 800, k)
        t2 = _row_sum(z0 + m * tau, 800, k)
        total += t1 + t2
        if abs(t1) + abs(t2) < 1e-18 * (1 + abs(total)):
            return total
    raise ConvergenceError(f"_wp_k_rows: wp_{k} rows at z0 = {z0}, tau = {tau} not "
                           f"converged in the cap of {_WP_K_ROWS_CAP} rows")


def wp(z: complex, tau: complex) -> complex:
    """Classical Weierstrass wp = wp_2 - G_2."""
    return wp_k(2, z, tau) - eisenstein_G(2, tau)


def wp_prime(z: complex, tau: complex) -> complex:
    """wp'(z) = -2 wp_3(z)."""
    return -2.0 * wp_k(3, z, tau)


def sigma(z: complex, tau: complex) -> complex:
    """Modified Weierstrass sigma; sigma(0) = 0, odd, entire.

    Quasi-period reduction plus the exponential-of-series core, with
    recursive halving sigma(2u) = -wp'(u) sigma(u)^4 outside its disc;
    `_sigma_product` is the truncated Weierstrass product the tests check
    it against.
    """
    tau = _check_tau(tau)
    z0, a, b = lattice_reduce(z, tau)
    rmin = min_lattice_norm(tau)
    if a == 0 and b == 0:
        return _sigma_core(z0, tau, rmin)
    # sigma(z0 + w) = eps(w) sigma(z0) exp(eta(w) (z0 + w/2)), eta(w) = -2 pi i a
    w = a * tau + b
    eps_w = float((-1) ** (a + b + a * b))
    return eps_w * _sigma_core(z0, tau, rmin) * np.exp(-TWO_PI_I * a * (z0 + w / 2.0))


def _sigma_core(z0: complex, tau: complex, rmin: float) -> complex:
    if z0 == 0:
        return 0.0 + 0.0j
    if abs(z0) > 0.72 * rmin:
        u = z0 / 2.0
        return -wp_prime(u, tau) * _sigma_core(u, tau, rmin) ** 4
    terms = (eisenstein_G(k, tau) * z0**k / k for k in range(2, 401, 2))
    return z0 * np.exp(-_capped_series(terms, 1e-18, f"_sigma_core: sigma series at z0 = {z0}"))


def _sigma_product(z: complex, tau: complex, cfg: EvalConfig) -> complex:
    """The truncated Weierstrass product over the (M, N) rectangle."""
    from .kernels import lattice_sorted

    w, pos0 = lattice_sorted(tau, cfg.M, cfg.N)
    w = np.delete(w, pos0)
    g2 = eisenstein_G(2, tau)
    logs = np.log1p(-z / w) + z / w + 0.5 * (z / w) ** 2
    return z * np.exp(-0.5 * g2 * z * z + complex(np.sum(logs)))


def weier_zeta(z: complex, tau: complex) -> complex:
    """Modified Weierstrass zeta = sigma'/sigma, Laurent 1/z - sum G_{n+2} z^{n+1}."""
    tau = _check_tau(tau)
    z0, a, b = lattice_reduce(z, tau)
    if z0 == 0:
        raise ZeroDivisionError("weier_zeta pole: z on the lattice")
    core = _zeta_core(z0, tau, min_lattice_norm(tau))
    if a == 0:
        return core
    return core + a * (-TWO_PI_I)  # eta_1 = 0, eta_tau = -2 pi i


def _zeta_core(z0: complex, tau: complex, rmin: float) -> complex:
    if abs(z0) > 0.72 * rmin:
        u = z0 / 2.0
        # zeta(2u) = 2 zeta(u) + wp''(u) / (2 wp'(u))
        wpp = wp_prime(u, tau)
        wp2d = 6.0 * wp(u, tau) ** 2 - 30.0 * eisenstein_G(4, tau)
        return 2.0 * _zeta_core(u, tau, rmin) + wp2d / (2.0 * wpp)
    terms = (eisenstein_G(k, tau) * z0 ** (k - 1) for k in range(2, 401, 2))
    return 1.0 / z0 - _capped_series(terms, 1e-18, f"_zeta_core: zeta series at z0 = {z0}")


def quasi_periods(tau: complex) -> tuple[complex, complex]:
    """(eta_1, eta_tau) computed honestly as zeta differences."""
    tau = _check_tau(tau)
    z = -0.25 - 0.15j + 0.1 * tau
    eta1 = weier_zeta(z + 1, tau) - weier_zeta(z, tau)
    etat = weier_zeta(z + tau, tau) - weier_zeta(z, tau)
    return eta1, etat


# ---------------------------------------------------------------------------
# Laurent / Taylor extraction by Cauchy integrals
# ---------------------------------------------------------------------------

def laurent_coefficients(f, orders, radius: float):
    """Coefficients c_j of f(z) = sum c_j z^j for j in ``orders``.

    Trapezoidal Cauchy integrals on |z| = radius at 4 (max |j| + 8) nodes;
    spectrally accurate for f meromorphic with no singularity on or inside
    the circle except 0.
    """
    orders = list(orders)
    Q = 4 * (max(abs(o) for o in orders) + 8)
    th = 2 * pi * np.arange(Q) / Q
    ring = radius * np.exp(1j * th)
    vals = np.array([f(complex(p)) for p in ring])
    out = {}
    for j in orders:
        out[j] = complex(np.mean(vals * np.exp(-1j * j * th))) * radius ** float(-j)
    return out


# ---------------------------------------------------------------------------
# derivative polynomials and trace forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def wp2_deriv(n: int) -> WpPolynomial:
    """wp_2^{(n)} for any n >= 0: the n-fold `WpPolynomial.dz` of
    wp_2 = wp + G_2, which reduces by (wp')^2 = 4 wp^3 - 60 G_4 wp - 140 G_6
    and wp'' = 6 wp^2 - 30 G_4."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return WpPolynomial({(1, 0): QuasiModular.const(1), (0, 0): QuasiModular.gen(2)})
    return wp2_deriv(n - 1).dz()


def wp_deriv_poly(k: int) -> WpPolynomial:
    """wp_2^{(2k-2)} as a degree-k polynomial in wp over Q[G_4, G_6] (+G_2 at k=1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return wp2_deriv(2 * k - 2)


def phi_exp(lam) -> Fraction:
    """prod 1/m_k!, the exponential-formula partition weight."""
    out = Fraction(1)
    for m in lam.mult.values():
        out /= factorial(m)
    return out


@lru_cache(maxsize=None)
def f_coeff(r: int) -> QuasiModular:
    """f_r with wp_{2^r} = f_r wp_2 + g_r: the signed partition Eisenstein trace

    f_r = (-1)^{r-1} Tr_{r-1}(beta; -G_2, -G_4, ..., -G_{2(r-1)}).

    The signs are calibrated against the direct lattice sums: f_2 = G_2 and
    f_3 = (G_2^2 - G_4)/2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    X = [-QuasiModular.gen(2 * j) for j in range(1, r)]
    tr = partition_trace(beta, X, r - 1)
    tr = QuasiModular.const(tr) if isinstance(tr, (int, Fraction)) else tr
    return (-1) ** (r - 1) * tr


@lru_cache(maxsize=None)
def g_hat_coeff(r: int) -> QuasiModular:
    """g_hat_r = f_{r+1} + sum_{t=0}^{r-2} (-1)^{r-t} (2(r-t)-1) G_{2(r-t)} f_{t+1}."""
    out = f_coeff(r + 1)
    for t in range(0, r - 1):
        j = r - t
        out = out + (-1) ** j * (2 * j - 1) * QuasiModular.gen(2 * j) * f_coeff(t + 1)
    return out


def multi_to_deriv_form(h: int, r: int) -> WpPolynomial:
    """wp_{h^r} via the harmonic-product exponential:

    wp_{h^r} = (-1)^r sum_{lam |- r} prod_k (1/m_k!) (c_{hk} wp_2^{(hk-2)})^{m_k},
    c_j = (-1)^{j-1} h / j!.
    """
    if r == 0:
        return WpPolynomial.const(1)
    X = []
    for j in range(1, r + 1):
        c = Fraction((-1) ** (h * j - 1) * h, factorial(h * j))
        X.append(c * wp2_deriv(h * j - 2))
    return (-1) ** r * partition_trace(phi_exp, X, r)


def repeated_index_closed_form(h: int, r: int) -> WpPolynomial:
    """Closed form of wp_{h,...,h} (r copies) as a wp-polynomial.

    h = 2 uses the f_r/g_hat_r traces; h = 3 with odd r uses the beta' trace
    (signed: Tr_{(r-1)/2}(beta'; -G_6, ..., -G_{3(r-1)}) * wp_3, fixed by the
    r = 1 case); anything else routes through the derivative polynomials.
    """
    if h < 2 or r < 1:
        raise ValueError("need h >= 2 and r >= 1")
    if h == 2:
        fr, gr = f_coeff(r), g_hat_coeff(r)
        return WpPolynomial({(1, 0): fr, (0, 0): gr})
    if h == 3 and r % 2 == 1:
        X = [-QuasiModular.gen(6 * j) for j in range(1, (r - 1) // 2 + 1)]
        tr = partition_trace(beta_prime, X, (r - 1) // 2)
        tr = QuasiModular.const(tr) if isinstance(tr, (int, Fraction)) else tr
        # wp_3 = -wp'/2
        return WpPolynomial({(0, 1): tr * Fraction(-1, 2)})
    return multi_to_deriv_form(h, r)


def wp_deriv_trace_form(k: int) -> dict[str, WpPolynomial]:
    """Both partition-trace expressions for wp_2^{(2k-2)}.

    "multi_wp":  k (2k-1)! Tr_k(phi_log; wp_2, -wp_{2,2}, ..., (-1)^{k+1} wp_{2^k})
    (the overall sign is pinned by the k = 1 case, which must give wp_2), and
    "classical": (2k-1)! (G_{2k} + k Tr_k(phi_log; wp, -3 G_4, ..., -(2k-1) G_{2k})).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X1 = [(-1) ** (j + 1) * repeated_index_closed_form(2, j) for j in range(1, k + 1)]
    form1 = k * factorial(2 * k - 1) * partition_trace(phi_log, X1, k)

    X2: list = [WpPolynomial.wp()]
    for j in range(2, k + 1):
        X2.append(WpPolynomial.const(-(2 * j - 1) * QuasiModular.gen(2 * j)))
    t2 = partition_trace(phi_log, X2, k)
    form2 = factorial(2 * k - 1) * (WpPolynomial.const(QuasiModular.gen(2 * k)) + k * t2)
    return {"multi_wp": form1, "classical": form2}


def g_value_fn(tau: complex):
    """Evaluator for QuasiModular generators at tau."""
    def g(k: int) -> complex:
        return eisenstein_G(k, tau)
    return g


def eval_wp_polynomial(p: WpPolynomial, z: complex, tau: complex) -> complex:
    return p.evaluate(wp(z, tau), wp_prime(z, tau), g_value_fn(tau))

"""Multiple wp-functions: direct lattice evaluation, the restricted
multivariable variants with their Taylor data, the reduction to single
wp-functions with multiple-Eisenstein coefficients, and the Fourier /
modular properties of the repeated-2 family.

The full-lattice ordered sum is evaluated by splitting the chain
w_1 < ... < w_r at 0 (an exact regrouping of the truncated sum): each piece
factors into two restricted sums over w > 0, which converge fast under the
trailing-2 telescoping of the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, log

from .core import (DEFAULT_CONFIG, ConvergenceError, EvalConfig, Index, compositions_fixed,
                   couplings, stuffle_expand)
from .kernels import LatticeRegion, ordered_sum, ordered_sums
from .meisen import (_amplitude_matrix, _require_admissible, _richardson, _strip_p_matrix,
                     _suffix_dp, _tilde_sweep, g_function, meis_qexp, multitangent_reduce)
from .mzv import _hurwitz_prefixes
from .weier import TWO_PI_I, _check_tau, lattice_reduce, lipschitz_psi, wp_k

__all__ = [
    "multiwp_tilde", "multiwp_direct", "multiwp_raw",
    "multiwp_multivar", "ReducedForm", "multiwp_reduce", "QFactor",
    "multiwp_tilde_fourier",
    "antipode_residual", "multiwp22_fourier", "modular_transform_check",
    "fourier_c",
]


# ---------------------------------------------------------------------------
# restricted multivariable wp
# ---------------------------------------------------------------------------

def _tilde_extrapolated(index: Index, xs, tau: complex, cfg: EvalConfig) -> complex:
    """The restricted sum of the whole index at xs, Richardson-extrapolated
    from one three-level sweep."""
    return _richardson(*(out[0] for out in ordered_sum(*_tilde_sweep(index, xs, tau, cfg))))[0]


def _tilde_taylor(index: Index, xs, tau: complex, tol: float, max_order: int = 26) -> complex:
    """The Eisenstein Taylor series of the restricted wp at |x_i| <= 0.45
    (else ValueError), summed shell by shell (total order p); stops after two
    shells in a row below tol (1 + |sum|) with p >= 4.  Raises
    ConvergenceError at max_order, or once three forecasts in a row from
    p >= 11 (the shell decay over four orders, carried on geometrically)
    put the second small shell more than 3 orders past it: shells fall
    unevenly, so shorter fits drop series that converge in time."""
    if any(abs(x) > 0.45 for x in xs):
        raise ValueError("the Taylor series needs all |x_i| <= 0.45")
    r = index.depth
    total = 0.0 + 0.0j
    small = late = 0
    sizes = []
    for p in range(0, max_order + 1):
        shell = 0.0 + 0.0j
        for ns in compositions_fixed(p, r, 0):
            c = 1.0
            for n_j, k_j, x_j in zip(ns, index, xs):
                c *= (-1) ** k_j * comb(n_j + k_j - 1, k_j - 1) * complex(x_j) ** n_j
            gt = meis_qexp(Index(n + k for n, k in zip(ns, index)), tau)
            shell += c * gt
        total += shell
        sizes.append(abs(shell))
        bound = tol * (1.0 + abs(total))
        small = small + 1 if sizes[p] <= bound else 0
        if small >= 2 and p >= 4:
            return total
        if p >= 11 and sizes[p] > bound and sizes[p - 4] > 0:
            rate = (sizes[p] / sizes[p - 4]) ** 0.25  # per order
            need = p + 1 + log(bound / sizes[p]) / log(rate) if rate < 1 else inf
            late = late + 1 if need > max_order + 3 else 0
            if late >= 3:
                raise ConvergenceError(
                    f"restricted wp Taylor series of {tuple(index)} forecast to converge at "
                    f"order {need:.1f}, past the cap {max_order}: shell size {sizes[p]:.2e} "
                    f"at order {p}, {sizes[p - 4]:.2e} at {p - 4}, tol {tol:.1e}")
        else:
            late = 0
    raise ConvergenceError(
        f"restricted wp Taylor series of {tuple(index)} not converged at order "
        f"{max_order}: last shell size {abs(shell):.2e}, tol {tol:.1e}")


def multiwp_tilde(index, xs, tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Restricted multivariable wp: sum over 0 < w_1 < ... < w_r of
    prod (x_s - w_s)^{-k_s}; depth 0 gives 1.

    At depth <= 3 with every |x_i| <= 0.45 it takes the Eisenstein Taylor
    series `_tilde_taylor` to cfg.tol * 1e-4 (far more accurate); otherwise,
    or when that series raises ConvergenceError, the ordered lattice kernel
    under cfg, Richardson-extrapolated over cfg.N, 2 cfg.N, 4 cfg.N
    (`_tilde_extrapolated`).
    """
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    xs = [complex(x) for x in xs]
    if len(xs) != index.depth:
        raise ValueError("one argument per index part")
    for x in xs:
        z0, a, b = lattice_reduce(x, tau)
        if abs(z0) < 1e-12 and (a > 0 or (a == 0 and b > 0)):
            raise ZeroDivisionError("restricted wp pole: argument on the positive lattice")
    if index.depth == 0:
        return 1.0 + 0.0j
    if index.depth <= 3 and all(abs(x) <= 0.45 for x in xs):
        try:
            return _tilde_taylor(index, xs, tau, cfg.tol * 1e-4)
        except ConvergenceError:
            pass
    return _tilde_extrapolated(index, xs, tau, cfg)


# ---------------------------------------------------------------------------
# full-lattice multiple wp
# ---------------------------------------------------------------------------

def _multivar_split(index: Index, zs, fwd: list[complex], rev: list[complex]) -> complex:
    """Exact split of the ordered full-lattice sum at 0 (prefix below 0 /
    member at 0 / suffix above 0); each factor is a restricted sum.

    All factors come from two kernel sweeps at one truncation: the suffix
    factors tilde(index[i:], zs[i:]) are ``fwd``, the sweep over (index, zs),
    and the reversed prefix factors tilde(index[:i][::-1], -zs[:i][::-1])
    are ``rev``, the sweep over the reversed chain, in which that prefix is
    the suffix starting at r - i.
    """
    r = index.depth
    K = [0]
    for k in index:
        K.append(K[-1] + k)
    suf = fwd + [1.0 + 0.0j]
    pre = [1.0 + 0.0j] + rev[::-1]

    total = 0.0 + 0.0j
    for i in range(r + 1):
        total += (-1) ** (K[i] % 2) * pre[i] * suf[i]
    for i in range(1, r + 1):
        total += (zs[i - 1] ** float(-index[i - 1]) * (-1) ** (K[i - 1] % 2)
                  * pre[i - 1] * suf[i])
    return total


def _split_chains(index: Index, zs) -> tuple:
    """The two chain orientations (index, shifts) that the split sweeps: the
    suffix factors' (index, zs) and the reversed prefix factors'."""
    return (index, zs), (index.reversed(), [-z for z in reversed(zs)])


def _split_extrapolated(index: Index, zs, tau: complex, cfg: EvalConfig) -> complex:
    """Richardson-extrapolated inner limit of the split evaluator.

    The fixed-M truncation error is an asymptotic series a/N + b/N^2 + ...
    (slot tails against the nonvanishing rows-above suffix constants give the
    1/N term); three evaluations at N, 2N, 4N remove both leading orders.
    Each chain orientation takes one sweep over the 4N region, which gives
    its sums at all three levels; the two sweeps run at once.  Each sweeps
    its own `tilde_rows`, so the sum is over the rectangle of those rows
    below and above 0, which the split regroups exactly.
    """
    if index.depth == 0:
        return 1.0 + 0.0j
    fwd, rev = ordered_sums([_tilde_sweep(ix, xs, tau, cfg)
                             for ix, xs in _split_chains(index, zs)])
    return _richardson(*(_multivar_split(index, zs, f, r) for f, r in zip(fwd, rev)))[0]


def multiwp_direct(index, z: complex, tau: complex,
                   cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Multiple wp-function: iterated Eisenstein-ordered lattice sum over
    w_1 < ... < w_r of prod (z - w_s)^{-k_s} (inner n-limits accelerated by
    Richardson extrapolation over cfg.N, 2 cfg.N, 4 cfg.N); the
    multivariable wp at z_1 = ... = z_r = z.

    The rows are cut where Im tau says they stop mattering: each half of
    the split sweeps the `meisen.tilde_rows` of its shifts (z above 0, -z
    below), at most cfg.M.  All three levels share those rows, so the
    extrapolation removes only the error in N."""
    index = Index(index)
    return multiwp_multivar(index, [z] * index.depth, tau, cfg)


def multiwp_raw(index, z: complex, tau: complex,
                cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Plain single-pass truncated sum over the whole rectangle (slowly
    convergent; kept as an independent cross-check of the split evaluator)."""
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    if index.depth == 0:
        return 1.0 + 0.0j
    return ordered_sum(LatticeRegion(tau, cfg.M, cfg.N), [complex(z)] * index.depth, list(index),
                       split_last=index[-1] == 2)[0]


def multiwp_multivar(index, zs, tau: complex,
                     cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Multivariable wp: sum over w_1 < ... < w_r of prod (z_s - w_s)^{-k_s}."""
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    zs = [complex(z) for z in zs]
    if len(zs) != index.depth:
        raise ValueError("one z per index part")
    if any(abs(lattice_reduce(z, tau)[0]) < 1e-12 for z in zs):
        raise ZeroDivisionError("multiwp pole: some z_i on the lattice")
    return _split_extrapolated(index, zs, tau, cfg)


# ---------------------------------------------------------------------------
# reduction to single wp-functions
# ---------------------------------------------------------------------------

Term = tuple[Fraction, tuple[Index, ...]]


@dataclass(frozen=True)
class ReducedForm:
    """wp_{k_1..k_r}(z) = sum_n coeff_n * wp_n(z) + const, with coefficients
    stored as exact rational combinations of products of multiple-Eisenstein
    symbols.  Symbol tuples keep the two-sided orientation (left blocks appear
    reversed); ``natural_terms`` exposes the un-reversed view.
    """

    index: Index
    wp_terms: tuple[tuple[int, tuple[Term, ...]], ...]  # (n, terms)
    const_terms: tuple[Term, ...]

    def wp_map(self) -> dict[int, tuple[Term, ...]]:
        return dict(self.wp_terms)

    def coeff_value(self, n: int, tau: complex) -> complex:
        return _terms_value(self.wp_map().get(n, ()), tau)

    def const_value(self, tau: complex) -> complex:
        return _terms_value(self.const_terms, tau)

    def evaluate(self, z: complex, tau: complex) -> complex:
        """sum_n coeff_n(tau) wp_n(z) + const(tau): the coefficients by
        `meis_qexp`, the wp_n by `wp_k`."""
        out = _terms_value(self.const_terms, tau)
        for n, terms in self.wp_terms:
            out += _terms_value(terms, tau) * wp_k(n, z, tau)
        return out

    def coeff_combination(self, n: int) -> dict[Index, Fraction]:
        """Stuffle-expanded single-symbol combination of the wp_n coefficient."""
        return stuffle_expand(self.wp_map().get(n, ()))

    def const_combination(self) -> dict[Index, Fraction]:
        return stuffle_expand(self.const_terms)

    def natural_terms(self) -> dict:
        """Same data with every symbol re-reversed into increasing-m order."""
        flip = lambda terms: tuple((c, tuple(ix.reversed() for ix in t)) for c, t in terms)
        return {"wp": {n: flip(t) for n, t in self.wp_terms}, "const": flip(self.const_terms)}


def _terms_value(terms, tau) -> complex:
    out = 0.0 + 0.0j
    for c, idxs in terms:
        v = complex(Fraction(c))
        for ix in idxs:
            v *= meis_qexp(ix, tau) if ix.depth else 1.0
        out += v
    return out


@lru_cache(maxsize=None)
def multiwp_reduce(index) -> ReducedForm:
    """Exact reduction of wp_{k_1..k_r} to single wp_n's.

    Three groups of terms: shifted Taylor couplings against (wp_n - G_n),
    the n_i = 0 boundary couplings, and the pure two-sided products of
    multiple-Eisenstein symbols.
    """
    index = Index(index)
    _require_admissible(index)
    wp_terms: dict[int, list[Term]] = {}
    const_terms: list[Term] = []
    # (wp_{n_i} - G_{n_i}) couplings, n_j >= 2: the multitangent coupling of
    # the reversed index
    for c, a, b, n_i in multitangent_reduce(index.reversed()).terms:
        wp_terms.setdefault(n_i, []).append((c, (a, b)))
        if n_i % 2 == 0:  # -G_{n_i} = -2 Gt_{n_i}
            const_terms.append((-2 * c, (a, b, Index((n_i,)))))
    # n_i = 0 boundary couplings
    for i in range(index.depth):
        for ns, c in couplings(index, index.weight, i, 0):
            const_terms.append((Fraction(c), (Index(ns[:i][::-1]), Index(ns[i + 1:]))))
    # pure two-sided products
    for i in range(0, index.depth + 1):
        sgn = (-1) ** (sum(index[i:]) % 2)
        const_terms.append((Fraction(sgn), (Index(index[:i][::-1]), Index(index[i:]))))

    for n, terms in wp_terms.items():
        for _, idxs in terms:
            assert all(p >= 2 for ix in idxs for p in ix)
    merged = tuple(sorted((n, tuple(t)) for n, t in wp_terms.items()))
    return ReducedForm(index, merged, tuple(const_terms))


# ---------------------------------------------------------------------------
# antipode residual (vanishing derivative sum of the Q-factors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QFactor:
    """Q_{r,i}(z; tau; x) = tilde_{2^{r-i}}(z - x_{i+1}, ..., z - x_r) *
    tilde_{2^{i-1}}(x_{i-1} - z, ..., x_1 - z).

    Q_{r,1} and Q_{r,r} degenerate to a single restricted-wp factor.
    """

    r: int
    i: int
    xs: tuple[complex, ...]
    tau: complex

    def value(self, z: complex) -> complex:
        """Q_{r,i} at z, each factor by `_tilde_taylor` to 1e-12, with its
        ValueError (some |x| > 0.45) and ConvergenceError."""
        r, i, xs = self.r, self.i, self.xs
        a = _tilde_taylor(Index((2,) * (r - i)), [z - xs[j] for j in range(i, r)],
                          self.tau, 1e-12) if r > i else 1.0
        b = _tilde_taylor(Index((2,) * (i - 1)), [xs[j] - z for j in range(i - 2, -1, -1)],
                          self.tau, 1e-12) if i > 1 else 1.0
        return a * b

    def dz(self, z: complex) -> complex:
        """Derivative by the 4th-order central stencil, h = (1e-8)^(1/3) max(1,|z|)."""
        h = 1e-8 ** (1.0 / 3.0) * max(1.0, abs(z))
        f = self.value
        return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


def antipode_residual(r: int, xs, tau: complex) -> complex:
    """sum_i d/dx_i [ Q_{r,i}(x_i; tau; x) ], which vanishes identically;
    the returned value is the numerical residual."""
    if r < 1:
        raise ValueError("r must be >= 1")
    xs = [complex(x) for x in xs]
    if len(xs) != r:
        raise ValueError("need r sample points")
    if len({round(x.real, 9) + 1j * round(x.imag, 9) for x in xs}) != r:
        raise ValueError("points must be distinct")
    tau = _check_tau(tau)
    total = 0.0 + 0.0j
    for i in range(1, r + 1):
        total += QFactor(r, i, tuple(xs), tau).dz(xs[i - 1])
    return total


# ---------------------------------------------------------------------------
# Fourier expansion of the restricted wp at a reflected argument
# ---------------------------------------------------------------------------

def multiwp_tilde_fourier(index, z: complex, tau: complex) -> complex:
    """tilde wp_{k_1..k_r}(-z, ..., -z) in the strip -Im tau < Im z < Im tau via its
    Fourier structure: the m = 0 prefix gives a Hurwitz multiple zeta value and
    each run of positive rows a multitangent Psi_block(z + m tau), so that

        (-1)^k sum over splittings  zeta^(z)(prefix) *
            sum over 0 < m_1 < ... < m_h  prod Psi_block_i(z + m_i tau),

    the suffix DP of `meisen` at x = xi q^m with Hurwitz prefixes.  The rows
    m >= 1 need Im(z + m tau) > 0 and the prefix no strip at all.
    """
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    z = complex(z)
    if not (-tau.imag < z.imag < tau.imag):
        raise ValueError("strip violated: need -Im tau < Im z < Im tau")
    if index.depth == 0:
        return 1.0 + 0.0j
    ix = tuple(index)
    P = _strip_p_matrix(z, tau, index.depth, index.weight)
    prefix = [v.value for v in _hurwitz_prefixes(ix, z)]
    return (-1) ** (index.weight % 2) * _suffix_dp(_amplitude_matrix(ix) @ P, prefix)


# ---------------------------------------------------------------------------
# Fourier expansion and modular transformation of wp_{2^r}
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fourier_c(r: int, j: int) -> tuple[Fraction, int]:
    """c_{r,j} as (rational, e) with c = rational * (2 pi i)^e.

    c_{r,j} = (-1)^{r-j} 2^j (2 pi i)^{2r-2j} / (2r)! *
              sum_{m_1+..+m_j = r, m_i > 0} multinomial(2r; 2m_1..2m_j).

    (The (2 pi i)-power belongs in the numerator: both the closed forms of
    zeta({2}^l) behind the multitangent blocks and the r = 1, 2 cross-checks
    against the direct sum pin it there.)
    """
    if not (0 <= j <= r):
        raise ValueError("need 0 <= j <= r")
    tot = 0
    for ms in compositions_fixed(r, j, 1):
        mult = factorial(2 * r)
        for m in ms:
            mult //= factorial(2 * m)
        tot += mult
    frac = Fraction((-1) ** (r - j) * 2**j * tot, factorial(2 * r))
    return frac, 2 * r - 2 * j


def multiwp22_fourier(r: int, z: complex, tau: complex) -> complex:
    """wp_{2,...,2} (r copies) in the strip 0 < Im z < Im tau via g-functions:

    sum_{0<=i<=j<=r} c_{r,j} g_{2^i}(z) (g_{2^{j-i}}(-z) + Psi_2(z) g_{2^{j-i-1}}(-z)).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    tau = _check_tau(tau)
    z = complex(z)
    if not (0 < z.imag < tau.imag):
        raise ValueError("strip violated: need 0 < Im z < Im tau")
    psi2 = lipschitz_psi(2, z)
    gz = {i: g_function(Index((2,) * i), z, tau) for i in range(r + 1)}
    gm = {i: g_function(Index((2,) * i), -z, tau) for i in range(r + 1)}
    total = 0.0 + 0.0j
    for j in range(r + 1):
        frac, e = fourier_c(r, j)
        if frac == 0:
            continue
        c = complex(frac) * TWO_PI_I ** e
        for i in range(j + 1):
            inner = gm[j - i]
            if j - i - 1 >= 0:
                inner = inner + psi2 * gm[j - i - 1]
            total += c * gz[i] * inner
    return total


def modular_transform_check(r: int, mat, z: complex, tau: complex,
                            cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """|LHS - RHS| of the weight-2r modular transformation law

    (c tau + d)^{-2r} wp_{2^r}(z/(c tau+d); (a tau+b)/(c tau+d))
        = sum_j (1/(r-j)!) (-2 pi i c/(c tau+d))^{r-j} wp_{2^j}(z; tau).
    """
    a, b, c, d = (int(v) for v in mat)
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    tau = _check_tau(tau)
    z = complex(z)
    if r == 0:
        return 0.0
    cz = c * tau + d
    lhs = cz ** (-2 * r) * multiwp_direct((2,) * r, z / cz, (a * tau + b) / cz, cfg)
    rhs = 0.0 + 0.0j
    for j in range(r + 1):
        term = (-TWO_PI_I * c / cz) ** (r - j) / factorial(r - j)
        if j > 0:
            term *= multiwp_direct((2,) * j, z, tau, cfg)
        rhs += term
    return abs(lhs - rhs)

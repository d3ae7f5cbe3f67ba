"""Multiple Eisenstein series: the slow direct lattice oracle and the fast
Fourier (q-expansion) pipeline.

The q-pipeline decomposes the ordered sum over 0 < w_1 < ... < w_r by which
consecutive run of indices shares each tau-coefficient m: a (possibly empty)
m = 0 prefix contributes a multiple zeta value, and each m > 0 block
contributes a multitangent value Psi_block(m tau).  Every multitangent of
admissible index reduces to monotangents with multiple-zeta coefficients,
and monotangents at m tau are geometric q-series by Lipschitz summation

    Psi_k(x) = sum_{n in Z} (x+n)^-k = (-2 pi i)^k/(k-1)! sum_{d>0} d^{k-1} e^{2 pi i d x}

for Im(x) > 0 (the sign is pinned by the direct-sum oracle in the tests; the
amplitude is `weier._lipschitz_amplitude`).

One suffix DP over 0 < m_1 < ... < m_h (`_suffix_dp`) sums every such
splitting, given one q-series per block and the prefix values.  It has three
callers: `meis_qexp` (blocks at x = q^m, MZV prefixes), `g_function`
(length-1 blocks at x = xi q^m, xi = e^{2 pi i z}, no prefix) and
`multip.multiwp_tilde_fourier` (blocks at x = xi q^m, Hurwitz MZV prefixes).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log

import numpy as np

from .core import DEFAULT_CONFIG, EvalConfig, Index, couplings
from .kernels import LatticeRegion, ordered_sum, positive_runs
from .mzv import mzv
from .weier import TWO_PI_I, _check_tau, _lipschitz_amplitude, _row_sum, lipschitz_psi

__all__ = [
    "QOrderError", "MultitangentReduction", "monotangent", "multitangent_reduce",
    "multitangent_direct", "tilde_rows", "meis_direct", "meis_direct_error", "meis_qexp",
    "g_function", "g_function_direct",
]


class QOrderError(ValueError):
    """A q-series needs more terms than `_Q_TERMS_CAP` (Im tau too small)."""


def _require_admissible(index: Index):
    if not index.admissible:
        raise ValueError(f"index {tuple(index)} not admissible: all parts must be >= 2")


# ---------------------------------------------------------------------------
# monotangents and multitangents
# ---------------------------------------------------------------------------

def monotangent(k: int, z: complex) -> complex:
    """Psi_k(z) = sum_{n in Z} (z+n)^-k for k >= 2, z not an integer.

    The Lipschitz series `lipschitz_psi` for |Im z| > 0.05 (at -z when
    Im z < 0), else the row sum `_row_sum` to |n| <= 2000 with EM tails.
    """
    if k < 2:
        raise ValueError("monotangent needs k >= 2")
    z = complex(z)
    if z.imag > 0.05:
        return lipschitz_psi(k, z)
    if z.imag < -0.05:
        return (-1) ** k * lipschitz_psi(k, -z)
    return _row_sum(z, 2001, k)


def multitangent_direct(index, z: complex, N: int = 30000) -> complex:
    """Truncated nested sum over n_1 < ... < n_r (oracle for the reduction)."""
    index = Index(index)
    # z - (-n) is z + n exactly, so the kernel sums (z + n)^-k over n ascending
    return ordered_sum(-np.arange(-N, N + 1), [z] * index.depth, list(index))[0]


@dataclass(frozen=True)
class MultitangentReduction:
    """Psi_index = sum over terms coeff * zeta(za) * zeta(zb) * Psi_n.

    Every term satisfies weight(za) + weight(zb) + n = weight(index).
    """

    index: Index
    terms: tuple[tuple[Fraction, Index, Index, int], ...]

    def coefficients(self) -> dict[int, complex]:
        """Numeric map n -> coefficient of Psi_n."""
        out: dict[int, complex] = {}
        for c, za, zb, n in self.terms:
            v = float(c) * mzv(za).value * mzv(zb).value
            out[n] = out.get(n, 0.0) + v
        return out

    def evaluate(self, z: complex) -> complex:
        return sum(c * monotangent(n, z) for n, c in self.coefficients().items())


@lru_cache(maxsize=None)
def multitangent_reduce(index) -> MultitangentReduction:
    """Exact reduction of a multitangent to monotangents (depth-1 tangents).

    Boundary parts must be >= 2.  The reduction identity addresses the
    reversed index Psi_{k_r,...,k_1}, so reverse first.
    """
    index = Index(index)
    if index.depth == 0:
        raise ValueError("empty multitangent")
    if index[0] < 2 or index[-1] < 2:
        raise ValueError("boundary parts must be >= 2")
    ks = index.reversed()
    terms = []
    for i in range(ks.depth):
        for ns, c in couplings(ks, ks.weight, i):
            if ns[i] >= 2:
                terms.append((Fraction(c), Index(ns[:i][::-1]), Index(ns[i + 1:]), ns[i]))
    return MultitangentReduction(index, tuple(terms))


# ---------------------------------------------------------------------------
# direct (slow) evaluation
# ---------------------------------------------------------------------------

# -log(1e-20) / (2 pi): a w > 0 row m enters a restricted sum in the N -> oo
# limit only through multitangent factors of size e^{-2 pi (m Im tau - Im x)}
_ROW_DECAY = 20.0 * log(10.0) / (2.0 * np.pi)


def tilde_rows(xs, tau: complex, M: int) -> int:
    """Rows m = 0 .. R-1 of the lattice points w > 0 that a restricted-sum
    sweep at shifts xs takes: the smallest R >= 1 with
    e^{-2 pi (R Im tau - h)} <= 1e-20, h = max(0, max Im x), capped by M.
    Past R a row adds only its N-truncation residue, which is error."""
    h = max([0.0] + [complex(x).imag for x in xs])
    return min(M, max(1, ceil((h + _ROW_DECAY) / complex(tau).imag)))


def _tilde_sweep(index: Index, xs, tau: complex, cfg: EvalConfig) -> tuple:
    """The ``ordered_sum`` arguments of the one sweep over the lattice points
    w > 0 that gives the truncated restricted sums of index[s:] at xs[s:]
    (trailing-2 telescoping split) at three levels: to 4 cfg.N, 2 cfg.N and
    cfg.N, in that order, all over ``tilde_rows(xs, tau, cfg.M)`` rows.  At
    xs = 0 the full one is the sum over 0 < w_1 < ... < w_r of
    `meis_direct`.  The points are a `LatticeRegion` of the 4 cfg.N
    rectangle, which the sweep makes block by block; `_richardson` turns
    the levels into a value and an error estimate."""
    xs = [complex(x) for x in xs]
    M, N = tilde_rows(xs, tau, cfg.M), 4 * cfg.N
    return (LatticeRegion.above_zero(tau, M, N), xs, list(index), index[-1] == 2, 0.0,
            [positive_runs(M, N, M, n) for n in (N, 2 * cfg.N, cfg.N)])


def _richardson(v4: complex, v2: complex, v1: complex) -> tuple[complex, float]:
    """(value, estimate) of the N -> oo limit of a sum at 4N, 2N and N whose
    truncation error is a/N + b/N^2 + ...: the value R3 removes both leading
    orders and leaves an N^-3 term; the estimate is its distance from the
    two-level extrapolation 2 v4 - v2, which removes only the first."""
    value = (8.0 * v4 - 6.0 * v2 + v1) / 3.0
    return value, abs(value - (2.0 * v4 - v2))


def meis_direct(index, tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Multiple Eisenstein series by the iterated lattice sum (inner n-limits
    before outer m-limits; trailing-2 telescoping split), Richardson-
    extrapolated over cfg.N, 2 cfg.N, 4 cfg.N: `meis_direct_error`'s value."""
    return meis_direct_error(index, tau, cfg)[0]


def meis_direct_error(index, tau: complex,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[complex, float]:
    """(value, error estimate) of `_richardson` over the three levels of one
    `_tilde_sweep` at zero shifts."""
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    if index.depth == 0:
        return 1.0 + 0.0j, 0.0
    levels = ordered_sum(*_tilde_sweep(index, [0.0] * index.depth, tau, cfg))
    value, estimate = _richardson(*(out[0] for out in levels))
    return (-1) ** (index.weight % 2) * value, estimate


# ---------------------------------------------------------------------------
# q-expansion pipeline
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _d_powers(dmax: int, nmax: int) -> np.ndarray:
    """D[n - 2, d - 1] = d^{n-1} for n = 2..nmax, d = 1..dmax.  tau-free,
    read-only; the 64 most recently used shapes are cached."""
    d = np.arange(1.0, dmax + 1)
    D = np.array([d ** (n - 1) for n in range(2, nmax + 1)])
    D.flags.writeable = False
    return D


def _p_matrix(x: np.ndarray, dmax: int, nmax: int) -> np.ndarray:
    """Row n - 2 holds P_n(x_m) = sum_{d=1}^{dmax} d^{n-1} x_m^d, n = 2..nmax,
    as one product D @ (x^d) of the cached d-power table `_d_powers` with
    the complex power table, which is multiplied as its real and imaginary
    columns (a real product on a float view, no complex copy of D)."""
    d = np.arange(1.0, dmax + 1)
    xpow = np.asarray(x, dtype=complex)[None, :] ** d[:, None]  # (dmax, mmax)
    return (_d_powers(dmax, nmax) @ xpow.view(float)).view(complex)


def _suffix_dp(Q: np.ndarray, prefix) -> complex:
    """Sum over the splittings of k_1..k_r into a prefix k_1..k_j, valued
    prefix[j], and blocks at 0 < m_1 < ... < m_h, block b valued Q_b(m).

    Q has one row per block k_{i+1..t}, for i = r-1, ..., 0 and then
    t = i+1..r (the layout of `_amplitude_matrix`), and one column per
    m = 1..mmax.  R_i(m) is the sum over the block splittings of k_{i+1..r}
    with every m' > m:  R_r = 1,
    R_i(m) = sum_{t > i} sum_{m' > m} Q_{k_{i+1..t}}(m') R_t(m'),
    so that the sum is sum_j prefix[j] R_j(0).  Every m-sum stops at mmax.
    """
    r = len(prefix) - 1
    R = np.zeros((r + 1, Q.shape[1] + 1), dtype=complex)  # R[i, m] = R_i(m), m = 0..mmax
    R[r] = 1.0
    row = 0
    for i in range(r - 1, -1, -1):
        S = (Q[row:row + r - i] * R[i + 1:, 1:]).sum(axis=0)  # m' = 1..mmax
        R[i, :-1] = np.cumsum(S[::-1])[::-1]
        row += r - i
    return complex(np.dot(prefix, R[:, 0]))


_Q_TERMS_CAP = 64  # rows m: a 1e-18 tail for Im tau >= 0.106 (depth 1) to 0.116 (depth 6)


def _q_terms_needed(ratio: float, depth: int) -> int:
    """The number of rows m a q-series of the given depth needs: depth + 1
    past the point where ratio^m, its largest geometric ratio, falls below
    1e-18; raises QOrderError when that exceeds `_Q_TERMS_CAP`."""
    need = int(np.ceil(log(1e-18) / log(ratio))) + depth + 1
    if need > _Q_TERMS_CAP:
        raise QOrderError(
            f"Im tau = {-log(ratio) / (2 * np.pi):.4g} (or Im(tau + z), if smaller, on a "
            f"strip) needs ~{need} q-terms, above the cap of {_Q_TERMS_CAP}")
    return need


@lru_cache(maxsize=None)
def _block_amplitudes(block: tuple) -> tuple[tuple[int, complex], ...]:
    """Pairs (n, c_n amplitude_n) with Psi_block(x) = sum_n c_n Psi_n(x), so
    that Psi_block(m tau) = sum_n c_n amplitude_n P_n(q^m).  tau-free."""
    red = multitangent_reduce(block).coefficients()
    return tuple((n, c * _lipschitz_amplitude(n)) for n, c in red.items())


@lru_cache(maxsize=None)
def _prefix_values(index: tuple) -> tuple[float, ...]:
    """zeta(k_1..k_j) for j = 0..r, with 1 for the empty prefix.  tau-free."""
    return (1.0,) + tuple(mzv(index[:j]).value for j in range(1, len(index) + 1))


@lru_cache(maxsize=None)
def _amplitude_matrix(index: tuple) -> np.ndarray:
    """One row per block k_{i+1..t}, for i = r-1, ..., 0 and then t = i+1..r:
    the block amplitudes at n = 2..weight(index).  tau-free, read-only."""
    r = len(index)
    blocks = [index[i:t] for i in range(r - 1, -1, -1) for t in range(i + 1, r + 1)]
    A = np.zeros((len(blocks), sum(index) - 1), dtype=complex)
    for row, block in enumerate(blocks):
        for n, a in _block_amplitudes(block):
            A[row, n - 2] = a
    A.flags.writeable = False
    return A


@lru_cache(maxsize=64)
def _q_table(tau: complex, depth: int, weight: int) -> np.ndarray:
    """`_p_matrix` at x = q^m for the indices of one depth and weight at tau:
    m to `_q_terms_needed` (which raises QOrderError first), d to
    max(need, 8), n = 2..weight.  Read-only; the indices of one relation
    share a few of these per tau, and the 64 most recent are kept."""
    q = complex(np.exp(TWO_PI_I * tau))
    need = _q_terms_needed(abs(q), depth)
    P = _p_matrix(q ** np.arange(1, need + 1), max(need, 8), weight)
    P.flags.writeable = False
    return P


@lru_cache(maxsize=4096)
def _meis_qexp_cached(index: tuple, tau: complex) -> complex:
    """The suffix DP with block b at Q_b(m) = Psi_b(m tau), from x = q^m, and
    the MZV prefixes."""
    P = _q_table(tau, len(index), sum(index))
    return _suffix_dp(_amplitude_matrix(index) @ P, _prefix_values(index))


def meis_qexp(index, tau: complex) -> complex:
    """Multiple Eisenstein series via the Fourier / multitangent pipeline.

    Takes the q-terms its 1e-18 tail needs (`_q_terms_needed`); raises
    QOrderError past `_Q_TERMS_CAP` of them, i.e. for Im tau below ~0.11."""
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    if index.depth == 0:
        return 1.0 + 0.0j
    return _meis_qexp_cached(tuple(index), tau)


# ---------------------------------------------------------------------------
# g-functions (positive-m half-lattice sums with free integer parts)
# ---------------------------------------------------------------------------

def _strip_p_matrix(z: complex, tau: complex, depth: int, nmax: int) -> np.ndarray:
    """`_p_matrix` at x = xi q^m, xi = e^{2 pi i z}, for a strip series of
    the given depth: m runs to mmax = `_q_terms_needed` at the ratio
    max(|xi q|, |q|), and d to 4 mmax.  The d-power table is the cached
    tau-free one of `_p_matrix`, so only the power table x^d is built per
    call."""
    q = complex(np.exp(TWO_PI_I * tau))
    xi = complex(np.exp(TWO_PI_I * z))
    if abs(xi * q) >= 1:
        raise ValueError("strip violated: need Im(z) > -Im(tau)")
    need = _q_terms_needed(max(abs(xi * q), abs(q)), depth)
    return _p_matrix(xi * q ** np.arange(1, need + 1), 4 * need, nmax)


def g_function(index, z: complex, tau: complex) -> complex:
    """g_{k_1..k_r}(z) = sum over 0<m_1<...<m_r, n_i in Z of
    prod (z + m_i tau + n_i)^{-k_i}, via its xi, q double series: the suffix
    DP with only length-1 blocks, Q_{k_i}(m) = Psi_{k_i}(z + m tau).

    Valid in the strip |Im z| < Im tau (the empty index gives 1)."""
    index = Index(index)
    _require_admissible(index)
    tau = _check_tau(tau)
    if index.depth == 0:
        return 1.0 + 0.0j
    r = index.depth
    P = _strip_p_matrix(complex(z), tau, r, max(index))
    Q = np.zeros((r * (r + 1) // 2, P.shape[1]), dtype=complex)
    for i, k in enumerate(index):  # the block k_{i+1} opens row group i
        Q[(r - i - 1) * (r - i) // 2] = _lipschitz_amplitude(k) * P[k - 2]
    return _suffix_dp(Q, (1.0,) + (0.0,) * r)


def g_function_direct(index, z: complex, tau: complex) -> complex:
    """Direct-sum oracle for g_function: rows Psi_k(z + m tau), 0 < m <= 40,
    by `_row_sum` to |n| <= 4000."""
    index = Index(index)
    _require_admissible(index)
    if index.depth == 0:
        return 1.0 + 0.0j
    rows = {}

    def row(k, m):
        if (k, m) not in rows:
            rows[(k, m)] = _row_sum(complex(z + m * tau), 4001, k)
        return rows[(k, m)]

    def rec(i, mprev):
        if i == index.depth:
            return 1.0 + 0.0j
        acc = 0.0 + 0.0j
        for m in range(mprev + 1, 41):
            acc += row(index[i], m) * rec(i + 1, m)
        return acc

    return rec(0, 0)

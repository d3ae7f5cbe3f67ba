"""Numerical multiple zeta values and Hurwitz multiple zeta values.

Convention (as used throughout this package):

    zeta(k_1, ..., k_r) = sum_{0 < n_1 < ... < n_r} n_1^{-k_1} ... n_r^{-k_r},

convergent iff the last entry satisfies k_r >= 2.  Values are computed by
direct lexicographic summation up to a fixed cutoff T; the truncated tails
are *corrected* level by level with Euler-Maclaurin power expansions (not
merely bounded), and the reported error bound covers the neglected expansion
orders plus float rounding.

The cutoff T follows from the error bound.  Its parts that depend on T are
the orders the five-term expansions miss, at most twice their last term
(2 |c_5| x0^-(k+5) per expanded sum, x0 = shift + T + 1), and each level's
error carried into the next tail through H(k, x0) ~ x0^(1-k) / (k-1); the
rest is float64 rounding, 8e-16 (|partial| + r |value|), where a complex
shift puts the same sum over the moduli |shift + n|^-k in place of
|partial| and |value|, since its terms can cancel.  T = 500 is the
smallest multiple of 100 at which the T-dependent parts add at most 3% to
the rounding part, for every admissible index of weight <= 13 (they add 8%
at T = 200 and 210% at T = 100).  A larger T only costs time: T = 46415
moves no value of weight <= 13 by more than 3.5e-16 relative.  An index
with a part 1 before its last part is extrapolated over T0, 2 T0, ...
instead; there T0 = 10^5 leaves a fit error of ~1e-10 relative, inside the
reported bound.  More precision needs another algorithm and number type,
not a larger cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .core import Index, bernoulli
from .kernels import kahan_cumsum


@dataclass(frozen=True)
class MzvValue:
    value: complex
    err: float
    index: Index

    @property
    def real(self) -> float:
        return float(self.value.real) if isinstance(self.value, complex) else float(self.value)


def _em_power_list(gamma: int) -> list[tuple[float, int]]:
    """H(gamma, n) = sum_{m >= n} m^-gamma  ~=  sum_j c_j n^-beta_j, the
    five-term Euler-Maclaurin tail; n may be complex (n = x + N gives
    sum_{m >= N} (x + m)^-gamma, the row tails of `weier`)."""
    g = float(gamma)
    return [
        (1.0 / (g - 1.0), gamma - 1),
        (0.5, gamma),
        (g / 12.0, gamma + 1),
        (-g * (g + 1) * (g + 2) / 720.0, gamma + 3),
        (g * (g + 1) * (g + 2) * (g + 3) * (g + 4) / 30240.0, gamma + 5),
    ]


def _plist_eval(plist, x: complex) -> complex:
    return sum(c * x ** float(-b) for c, b in plist)


def _plist_apply(a: int, plist, beta_cap: int):
    """sum_{m >= n} m^-a * t(m) where t is a power list; result truncated."""
    out: dict[int, float] = {}
    for c, b in plist:
        for c2, b2 in _em_power_list(a + b):
            if b2 <= beta_cap:
                out[b2] = out.get(b2, 0.0) + c * c2
    return [(c, b) for b, c in sorted(out.items())]


# the smallest multiple of 100 at which the T-dependent parts of the error
# bound add at most 3% to its rounding part (admissible indices of weight <= 13)
_TAIL_T = 500


def mzv(index) -> MzvValue:
    """zeta(k_1,...,k_r) with an honest propagated error bound."""
    index = Index(index)
    if index.depth == 0:
        return MzvValue(1.0, 0.0, index)
    if any(k < 1 for k in index):
        raise ValueError("parts must be >= 1")
    if index[-1] < 2:
        raise ValueError(f"non-admissible index {index}: last part must be >= 2")
    if 1 in index:
        # divergent prefixes grow like powers of log n; the power-sum tail
        # machinery below does not apply, so extrapolate over T, 2T, 4T, ...
        return _mzv_interior_one(tuple(index))
    return _mzv_cached(tuple(index))


@lru_cache(maxsize=None)
def _mzv_interior_one(index: tuple) -> MzvValue:
    p = sum(1 for k in index if k == 1)
    # fit error ~1.4e-10 at (1, 2), inside err; T0 = 10^6 gives ~2e-12 at 10x the sums
    T0 = 10**5
    npts = p + 2
    Ts = [T0 * 2**j for j in range(npts)]

    def partial(T: int) -> float:
        for cums in _level_sums(index, np.arange(0, T + 1, dtype=float)):
            pass
        return float(cums[-1])

    # model: v(T) = V + (a_0 + a_1 log T + ... + a_p log^p T) / T
    A = np.zeros((npts, npts))
    b = np.zeros(npts)
    for i, T in enumerate(Ts):
        A[i, 0] = 1.0
        for j in range(p + 1):
            A[i, 1 + j] = np.log(float(T)) ** j / T
        b[i] = partial(T)
    sol = np.linalg.solve(A, b)
    V = float(sol[0])
    err = 100.0 * np.log(float(Ts[0])) ** p / Ts[0] ** 2 + 1e-14 * abs(V)
    return MzvValue(V, err, Index(index))


def _level_sums(index, base: np.ndarray):
    """Yield, level by level, the running sums of the nested sum over
    base[n] = shift + n: level s holds, at each n = 0..T, the sum over
    0 < n_1 < ... < n_s <= n of prod_i base[n_i]^-k_i."""
    Z = np.ones(len(base), dtype=base.dtype)
    for k in index:
        y = np.zeros(len(base), dtype=base.dtype)
        y[1:] = base[1:] ** float(-k) * Z[1:]
        cums = kahan_cumsum(y)
        yield cums
        Z = np.concatenate(([0.0], cums[:-1]))  # Z_s(n) = sum_{m<n}


def _nested_zeta(index: tuple, shift) -> tuple[MzvValue, ...]:
    """sum over 0 < n_1 < ... < n_r of prod (shift + n_i)^-k_i: the partial
    sums to T plus the Euler-Maclaurin tails, corrected level by level.  A
    float shift sums in float64, a complex one in complex128.

    Level s is the sum of the prefix k_1..k_s, so one call returns the r
    values of the prefixes s = 1..r, the last being the full sum.  The tail
    truncation and error terms are those of the full index at every level,
    so a shorter prefix agrees with its own call within its error bound."""
    T = _TAIL_T
    beta_cap = sum(index) + 8
    dtype = complex if isinstance(shift, complex) else float
    c_prev = 1.0
    err = 0.0
    tail_prev: list[tuple[float, int]] | None = None  # t_{s-1}(n) power list
    x0 = shift + (T + 1)
    ax0 = abs(x0)
    base = shift + np.arange(0, T + 1, dtype=dtype)
    levels = _level_sums(index, base)
    # float rounding scales with the sum of the moduli of the terms: the
    # partial sum itself for a real shift, a second nested sum over |base|
    # for a complex one, whose terms can cancel
    moduli = _level_sums(index, np.abs(base)) if dtype is complex else None
    out = []
    for s, (k, cums) in enumerate(zip(index, levels)):
        partial = cums[-1].item()
        size = abs(partial) if moduli is None else next(moduli)[-1].item()
        head = _plist_eval(_em_power_list(k), x0)
        # A five-term tail misses at most twice its last term: that of H(k, x0)
        # times c_{s-1}, and that of sum_{m >= x0} m^-k m^-b times c for each
        # term c n^-b of t_{s-1}.  The error of c_{s-1} enters through c_{s-1} H.
        tail_err = err * abs(head) + sum(
            2.0 * abs(c * _em_power_list(k + b)[-1][0]) * ax0 ** float(-(k + b) - 5)
            for c, b in [(c_prev, 0)] + (tail_prev or []))
        if s == 0:
            tail = head
            tail_list = _em_power_list(k)
        else:
            corr_list = _plist_apply(k, tail_prev, beta_cap)
            tail = c_prev * head - _plist_eval(corr_list, x0)
            # t_s(n) = c_{s-1} H(k, n) - sum_{m>=n} m^-k t_{s-1}(m)
            tl: dict[int, complex] = {}
            for c, b in _em_power_list(k):
                tl[b] = tl.get(b, 0.0) + c_prev * c
            for c, b in corr_list:
                tl[b] = tl.get(b, 0.0) - c
            tail_list = [(c, b) for b, c in sorted(tl.items())]
        c_s = partial + tail
        err = tail_err + 8e-16 * (size + len(index) * max(size, abs(c_s)))
        c_prev = c_s
        tail_prev = tail_list
        out.append(MzvValue(c_s, err, Index(index[:s + 1])))
    return tuple(out)


@lru_cache(maxsize=None)
def _mzv_cached(index: tuple) -> MzvValue:
    return _nested_zeta(index, 0.0)[-1]


@lru_cache(maxsize=64)
def zeta_even_exact(k: int) -> Fraction:
    """zeta(k) = c * pi^k for even k; returns the exact rational c.

    Euler: zeta(k) = -(2 pi i)^k B_k / (2 k!).
    """
    if k < 2 or k % 2 == 1:
        raise ValueError("zeta_even_exact needs even k >= 2")
    return Fraction((-1) ** (k // 2 + 1) * 2 ** (k - 1), factorial(k)) * bernoulli(k)


def hurwitz_mzv(index, z: complex) -> MzvValue:
    """zeta^{(z)}(k_1,...,k_r) = sum_{0<n_1<...<n_r} prod (z + n_i)^{-k_i}."""
    return _hurwitz_prefixes(index, z)[-1]


def _hurwitz_prefixes(index, z: complex) -> tuple[MzvValue, ...]:
    """The Hurwitz MZVs of the prefixes k_1..k_j, j = 0..r (1 for the empty
    one), from one nested sum over the whole index."""
    index = Index(index)
    empty = (MzvValue(1.0, 0.0, Index(())),)
    if index.depth == 0:
        return empty
    if index[-1] < 2:
        raise ValueError("non-admissible index: last part must be >= 2")
    if 1 in index[:-1]:
        raise ValueError(f"hurwitz_mzv index {tuple(index)} has a part 1 before its "
                         "last part; only the unshifted mzv has a route for it")
    z = complex(z)
    if z.imag == 0 and z.real <= -1 and abs(z.real - round(z.real)) < 1e-12:
        raise ZeroDivisionError("pole: z + n vanishes for a positive integer n")
    if abs(z) > _TAIL_T / 4:
        raise ValueError("shift too large for the tail expansion")
    return empty + _nested_zeta(tuple(index), z)

import importlib
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from multiwp.core import compositions_ge2, stuffle
from multiwp.mzv import _TAIL_T, _hurwitz_prefixes, _mzv_cached, hurwitz_mzv, mzv, zeta_even_exact
from multiwp.weier import lipschitz_psi

MZV = importlib.import_module("multiwp.mzv")  # the package's `mzv` attribute is the function
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

PI = math.pi


def brute_double(a: int, b: int, T: int = 4000) -> float:
    """Independent oracle: zeta(a, b) by a raw double sum with Richardson in T."""
    def val(T):
        n = np.arange(1.0, T + 1)
        inner = np.concatenate(([0.0], np.cumsum(n ** float(-a))[:-1]))
        return float(np.sum(n ** float(-b) * inner))
    # leading error ~ C/T^{b-1}: eliminate it and the next order
    v1, v2, v3 = val(T), val(2 * T), val(4 * T)
    w1, w2 = 2.0 ** (b - 1), 2.0 ** b
    u1 = (w1 * v2 - v1) / (w1 - 1)
    u2 = (w1 * v3 - v2) / (w1 - 1)
    return (w2 * u2 - u1) / (w2 - 1)


def test_euler_values():
    assert abs(mzv((2,)).real - PI**2 / 6) < 1e-14
    assert abs(mzv((4,)).real - PI**4 / 90) < 1e-14
    assert abs(mzv((3,)).real - 1.2020569031595942854) < 1e-14
    assert abs(mzv((5,)).real - 1.0369277551433699263) < 1e-14


def test_repeated_two_closed_forms():
    # zeta({2}^r) = pi^{2r} / (2r + 1)!
    for r in (1, 2, 3, 4):
        want = PI ** (2 * r) / math.factorial(2 * r + 1)
        got = mzv((2,) * r)
        assert abs(got.value - want) <= max(got.err, 1e-13)


def test_depth_two_against_brute_oracle():
    for a, b in [(2, 3), (3, 2), (2, 2), (4, 2), (2, 4), (3, 3)]:
        want = brute_double(a, b)
        got = mzv((a, b)).real
        assert abs(got - want) < 1e-9, (a, b)


def test_stuffle_consistency():
    # mzv(a) mzv(b) = sum stuffle coefficients mzv(word), total weight <= 8
    from multiwp.core import compositions_ge2
    idxs = [ix for w in range(2, 7) for ix in compositions_ge2(w)]
    for a in idxs:
        for b in idxs:
            if a.weight + b.weight > 8:
                continue
            lhs = mzv(a).value * mzv(b).value
            rhs = sum(c * mzv(w).value for w, c in stuffle(a, b).items())
            bound = sum(abs(c) * mzv(w).err for w, c in stuffle(a, b).items()) \
                + abs(mzv(a).value) * mzv(b).err + abs(mzv(b).value) * mzv(a).err
            assert abs(lhs - rhs) <= max(bound, 1e-12), (a, b)


def test_error_bounds_honest():
    for ix, exact in [((2,), PI**2 / 6), ((2, 2), PI**4 / 120),
                      ((2, 2, 2), PI**6 / 5040), ((2, 2, 2, 2), PI**8 / 362880)]:
        got = mzv(ix)
        assert abs(got.value - exact) <= max(got.err, 3e-16 * exact + 1e-16)


def test_admissibility():
    assert mzv(()).value == 1.0
    with pytest.raises(ValueError):
        mzv((2, 1))
    with pytest.raises(ValueError):
        mzv((0, 2))
    # interior 1s are allowed when the last part is >= 2; zeta(1,2) = zeta(3)
    v = mzv((1, 2))
    assert abs(v.value - mzv((3,)).real) <= v.err
    assert abs(v.value - mzv((3,)).real) < 1e-9


def test_zeta_even_exact():
    assert zeta_even_exact(2) == Fraction(1, 6)
    assert zeta_even_exact(4) == Fraction(1, 90)
    assert zeta_even_exact(8) == Fraction(1, 9450)
    # Euler's closed form pins the Euler-Maclaurin tail of the MZV summer
    for k in range(2, 41, 2):
        assert abs(float(zeta_even_exact(k)) * PI**k - mzv((k,)).real) < 1e-14, k
    with pytest.raises(ValueError):
        zeta_even_exact(3)


def test_hurwitz():
    for k in (2, 3, 4):
        assert abs(hurwitz_mzv((k,), 0.0).value - mzv((k,)).real) < 1e-13
    assert abs(hurwitz_mzv((2,), 1.0).value - (PI**2 / 6 - 1)) < 1e-13
    # self-consistency of the shifted double sum at two truncations
    got = hurwitz_mzv((2, 3), 0.5)
    T = 3000
    n = np.arange(1.0, 2 * T + 1)
    inner = np.concatenate(([0.0], np.cumsum((0.5 + n) ** -2.0)[:-1]))
    crude1 = np.sum(((0.5 + n) ** -3.0 * inner)[:T])
    crude2 = np.sum((0.5 + n) ** -3.0 * inner)
    rich = 2 * crude2 - crude1  # leading tail ~ C/T
    assert abs(got.value - rich) < 5e-7
    assert abs(got.value - crude2) < 2e-3
    # complex shift stays finite and matches a crude sum loosely
    gz = hurwitz_mzv((3,), 0.25 + 0.5j)
    n = np.arange(1.0, 40001)
    crude = np.sum((0.25 + 0.5j + n) ** -3.0)
    assert abs(gz.value - crude) < 1e-8


def test_hurwitz_pole_guard():
    with pytest.raises(ZeroDivisionError):
        hurwitz_mzv((2,), -3.0)
    with pytest.raises(ValueError):
        hurwitz_mzv((2, 1), 0.3)


@pytest.mark.parametrize("index, z", [((2, 3, 2, 4), 0.23 + 0.6j), ((2, 2, 2, 2), 0.5),
                                      ((3, 2, 5), -0.4 + 0.1j), ((4,), 0.2 + 1.5j)])
def test_hurwitz_prefixes_match_separate_calls(index, z):
    # one nested sum gives every prefix, each within its error bound of the
    # prefix's own call; the full index is the public value exactly
    prefixes = _hurwitz_prefixes(index, z)
    assert len(prefixes) == len(index) + 1
    assert prefixes[0] == hurwitz_mzv((), z)
    assert prefixes[-1] == hurwitz_mzv(index, z)
    for j, v in enumerate(prefixes):
        alone = hurwitz_mzv(index[:j], z)
        assert v.index == alone.index
        assert abs(v.value - alone.value) <= v.err, (j, v, alone)


@pytest.mark.parametrize("index", [(1, 2), (2, 1, 2)])
def test_hurwitz_interior_one_is_a_typed_error(index):
    with pytest.raises(ValueError, match=re.escape(str(index))):
        hurwitz_mzv(index, 0.3)


def _pi_power(n: int, c: Fraction) -> float:
    """c pi^n to ~50 digits, then rounded once to float."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(PI_50 ** n * c.numerator / c.denominator)


def _admissible(max_weight: int):
    return [tuple(ix) for w in range(2, max_weight + 1) for ix in compositions_ge2(w)]


def test_closed_forms_at_the_cutoff():
    # each reference is one rounding (<= 1.2e-16 relative) from the exact value
    # zeta({2}^n) = pi^{2n} / (2n + 1)!
    for n in range(1, 16):
        got, want = mzv((2,) * n), _pi_power(2 * n, Fraction(1, math.factorial(2 * n + 1)))
        assert abs(got.value - want) <= got.err + 1.2e-16 * want, n
        assert abs(got.value - want) <= 1e-15 * want, n
    # even zeta(k) = c pi^k, c rational
    for k in range(2, 41, 2):
        got, want = mzv((k,)), _pi_power(k, zeta_even_exact(k))
        assert abs(got.value - want) <= got.err + 1.2e-16 * want, k
        assert abs(got.value - want) <= 1e-15 * want, k
    # zeta(2, k) + zeta(k, 2) = zeta(2) zeta(k) - zeta(k + 2), the stuffle of two depth-1 sums
    for k in range(2, 32):
        a, b, z2, zk, zk2 = mzv((2, k)), mzv((k, 2)), mzv((2,)), mzv((k,)), mzv((k + 2,))
        lhs, rhs = a.value + b.value, z2.value * zk.value - zk2.value
        bound = a.err + b.err + z2.value * zk.err + zk.value * z2.err + zk2.err
        assert abs(lhs - rhs) <= bound, k
        assert abs(lhs - rhs) <= 1e-15 * abs(rhs), k


def test_the_cutoff_moves_no_value_of_weight_12(monkeypatch):
    # every admissible index of weight <= 12 at the cutoff against the same
    # sum at T = 46415, with the value cache cleared on both sides
    indices = _admissible(12)
    _mzv_cached.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(MZV, "_TAIL_T", 46415)
        try:
            far = {ix: mzv(ix) for ix in indices}
        finally:
            _mzv_cached.cache_clear()
    for ix in indices:
        got, ref = mzv(ix), far[ix]
        assert abs(got.value - ref.value) <= 1e-15 * abs(ref.value), ix
        assert abs(got.value - ref.value) <= got.err, ix


def test_the_error_bound_holds_at_small_cutoffs(monkeypatch):
    # at T = 8..40 the orders the tails miss dominate the bound, and it must
    # still cover the true error (the value at the cutoff stands in for the
    # truth) of every admissible index of weight <= 10
    indices = _admissible(10)
    ref = {ix: mzv(ix) for ix in indices}
    for T in (8, 12, 20, 40):
        with monkeypatch.context() as m:
            m.setattr(MZV, "_TAIL_T", T)
            _mzv_cached.cache_clear()
            try:
                for ix in indices:
                    got = mzv(ix)
                    assert abs(got.value - ref[ix].value) <= got.err, (T, ix)
            finally:
                _mzv_cached.cache_clear()


def test_the_error_bound_sets_the_cutoff(monkeypatch):
    # at T the parts of the bound that depend on T add at most 3% to its
    # rounding part, 8e-16 (|partial| + r |value|) <= 8e-16 (r + 1) |value|,
    # on every admissible index of weight <= 13; at T - 100 they add more
    def worst_ratio():
        _mzv_cached.cache_clear()
        return max(v.err / (8e-16 * (len(ix) + 1) * abs(v.value))
                   for ix in _admissible(13) for v in [mzv(ix)])

    assert _TAIL_T == 500
    assert worst_ratio() <= 1.03
    with monkeypatch.context() as m:
        m.setattr(MZV, "_TAIL_T", _TAIL_T - 100)
        try:
            assert worst_ratio() > 1.03
        finally:
            _mzv_cached.cache_clear()


def test_hurwitz_shift_limit(monkeypatch):
    # shifts up to T / 4 = 125: the same values as at T = 46415, each within
    # both error bounds; for Re z >= 0, where the terms do not cancel, the
    # bound stays tight
    limit = _TAIL_T / 4
    assert limit == 125
    indices = [(2,), (7,), (3, 2), (2, 5), (2, 2, 2), (4, 2, 3), (2, 2, 2, 2, 2)]
    shifts = [0.999 * limit * np.exp(1j * t) for t in (0.0, 1.3, 2.2, 2.9, -0.5, 3.1)]
    with monkeypatch.context() as m:
        m.setattr(MZV, "_TAIL_T", 46415)
        far = {(ix, z): hurwitz_mzv(ix, z) for ix in indices for z in shifts}
    for (ix, z), ref in far.items():
        got = hurwitz_mzv(ix, z)
        dev = abs(got.value - ref.value)
        assert dev <= 2e-15 * abs(ref.value), (ix, z)
        assert dev <= got.err + ref.err, (ix, z)
        if z.real >= 0:
            assert got.err <= 1e-13 * abs(got.value), (ix, z)
    hurwitz_mzv((2, 3), -124.9 + 0.5j)
    with pytest.raises(ValueError, match="shift too large"):
        hurwitz_mzv((2, 3), -125.1 + 0.5j)
    with pytest.raises(ValueError, match="shift too large"):
        hurwitz_mzv((2,), 125.1j)


@pytest.mark.parametrize("k", [2, 3, 7, 12])
def test_hurwitz_error_bound_where_the_terms_cancel(k):
    # for Re z << 0 the terms (z + n)^-k turn through many phases and cancel,
    # so rounding scales with the sum of their moduli, not with the value.
    # Reflection gives an independent check: the two half sums add up to
    # Psi_k(z) = sum over all n, i.e.
    # hurwitz(k, z) + (-1)^k hurwitz(k, -1 - z) = Psi_k(z), and -1 - z has Re > 0
    for t in (2.2, 2.9, 3.1):
        z = 0.99 * 125 * np.exp(1j * t)
        a, b = hurwitz_mzv((k,), z), hurwitz_mzv((k,), -1 - z)
        residual = abs(a.value + (-1) ** k * b.value - lipschitz_psi(k, z))
        assert residual <= a.err + b.err, (k, t)

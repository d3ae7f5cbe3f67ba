import math
import re
from fractions import Fraction

import numpy as np
import pytest

from multiwp.core import stuffle
from multiwp.mzv import _hurwitz_prefixes, hurwitz_mzv, mzv, zeta_even_exact

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

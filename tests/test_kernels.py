import math

import numpy as np
import pytest

from multiwp.core import EvalConfig, Index
from multiwp.kernels import kahan_cumsum, lattice_sorted, ordered_sum
from multiwp.multip import _multivar_split


def test_lattice_sorted_order():
    tau = 0.3 + 1.1j
    w, pos0 = lattice_sorted(tau, 3, 5)
    assert len(w) == 5 * 9
    assert w[pos0] == 0
    # strictly increasing in the (m, n) lexicographic order
    m = np.round(w.imag / tau.imag).astype(int)
    n = np.round(w.real - m * tau.real).astype(int)
    keys = list(zip(m.tolist(), n.tolist()))
    assert keys == sorted(keys)


def test_ordered_sum_depth1_matches_plain_sum():
    tau = 2j
    w, pos0 = lattice_sorted(tau, 8, 50)
    region = w[pos0 + 1:]
    got = ordered_sum(region, [0.0], [3])[0]
    want = np.sum((0.0 - region) ** -3.0)
    assert abs(got - want) < 1e-14


def test_ordered_sum_depth2_matches_double_loop():
    tau = 1j
    w, pos0 = lattice_sorted(tau, 3, 6)
    region = w[pos0 + 1:]
    z = 0.3 + 0.2j
    got = ordered_sum(region, [z, z], [3, 4])[0]
    vals1 = (z - region) ** -3.0
    vals2 = (z - region) ** -4.0
    want = sum(vals1[i] * vals2[j] for i in range(len(region))
               for j in range(i + 1, len(region)))
    assert abs(got - want) < 1e-13


def test_split_matches_plain_in_the_limit():
    # trailing-2 split evaluates the same inner limit, much faster in N
    tau = 2j
    vals = {}
    for N, split in [(400, True), (400, False), (40000, True)]:
        w, pos0 = lattice_sorted(tau, 6, N)
        region = w[pos0 + 1:]
        vals[(N, split)] = ordered_sum(region, [0.0, 0.0], [3, 2],
                                       split_last=split, boundary_prev=None)[0]
    limit = vals[(40000, True)]
    assert abs(vals[(400, True)] - limit) < 5e-5
    assert abs(vals[(400, True)] - limit) < abs(vals[(400, False)] - limit)


def _nested_loop_sum(region, shifts, exps, split, boundary_prev):
    """The split ordered sum term by term: slot values (with the last slot's
    -1/((V-1) V^2) under the split), the telescoped row remainder
    -1/(z_r - w - 1) after the second-to-last slot, and for depth 1 the
    boundary row's surviving term."""
    r, L = len(exps), len(region)
    split = split and exps[-1] == 2

    def f(s, j):
        v = complex(shifts[s]) - complex(region[j])
        if s == r - 1 and split:
            return -1.0 / ((v - 1.0) * v * v)
        return v ** -exps[s]

    def tail(s, j0):
        if s == r:
            return 1.0
        total = 0.0
        for j in range(j0, L):
            inner = tail(s + 1, j + 1)
            if split and s == r - 2:
                inner += -1.0 / (complex(shifts[-1]) - complex(region[j]) - 1.0)
            total += f(s, j) * inner
        return total

    out = tail(0, 0)
    if split and r == 1:
        out += -1.0 / (complex(shifts[0]) - boundary_prev - 1.0)
    return out


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("exps", [(2,), (3, 2), (2, 4, 2), (3, 2, 2, 2)])
def test_every_suffix_matches_nested_loop_and_single_sweep(exps, split):
    w, pos0 = lattice_sorted(0.4 + 1.2j, 3, 4)
    region = w[pos0 + 1:]
    shifts = [0.31 + 0.17j, -0.2 + 0.05j, 0.13 - 0.41j, 0.07 + 0.23j][:len(exps)]
    out = ordered_sum(region, shifts, list(exps), split_last=split, boundary_prev=0.0)
    assert len(out) == len(exps)
    for s in range(len(exps)):
        ref = _nested_loop_sum(region, shifts[s:], exps[s:], split, 0.0)
        assert abs(out[s] - ref) < 1e-12 * (1 + abs(ref)), (s, out[s], ref)
        single = ordered_sum(region, shifts[s:], list(exps[s:]), split_last=split,
                             boundary_prev=0.0)[0]
        assert out[s] == single, s


def _split_one_factor_per_call(index, zs, tau, cfg):
    """The split at 0 with one kernel call per prefix and suffix factor."""
    r = index.depth
    K = [0]
    for k in index:
        K.append(K[-1] + k)
    w, pos0 = lattice_sorted(tau, cfg.M, cfg.N)
    region = w[pos0 + 1:]

    def tilde(idx, args):
        if not idx:
            return 1.0 + 0.0j
        return ordered_sum(region, [complex(x) for x in args], list(idx),
                           split_last=idx[-1] == 2, boundary_prev=0.0)[0]

    total = 0.0 + 0.0j
    for i in range(r + 1):
        a = tilde(index[:i][::-1], [-zs[j] for j in range(i - 1, -1, -1)])
        b = tilde(index[i:], [zs[j] for j in range(i, r)])
        total += (-1) ** (K[i] % 2) * a * b
    for i in range(1, r + 1):
        a = tilde(index[:i - 1][::-1], [-zs[j] for j in range(i - 2, -1, -1)])
        b = tilde(index[i:], [zs[j] for j in range(i, r)])
        total += zs[i - 1] ** float(-index[i - 1]) * (-1) ** (K[i - 1] % 2) * a * b
    return total


@pytest.mark.parametrize("ix", [(2,), (3, 2), (2, 3), (2, 2, 2), (4, 2, 3), (2, 3, 2, 2)])
def test_two_sweep_split_equals_one_call_per_factor(ix):
    tau = 0.3 + 1.1j
    cfg = EvalConfig(M=4, N=60)
    zs = [0.21 + 0.13j, -0.17 + 0.29j, 0.33 - 0.11j, 0.05 + 0.4j][:len(ix)]
    index = Index(ix)
    assert _multivar_split(index, zs, tau, cfg) == _split_one_factor_per_call(index, zs, tau, cfg)


def test_kahan_cumsum_matches_fsum():
    # decaying positive terms, the MZV partial-sum shape
    n = np.arange(1.0, 2e5 + 1)
    y = n ** -2.0
    out = kahan_cumsum(y)
    assert abs(out[-1] - math.fsum(y)) < 5e-16
    mid = len(y) // 2
    assert abs(out[mid] - math.fsum(y[:mid + 1])) < 5e-16
    # mixed signs: error stays at the fsum scale relative to sum |y|
    rng = np.random.default_rng(1)
    y = rng.standard_normal(20000)
    out = kahan_cumsum(y)
    assert abs(out[-1] - math.fsum(y)) < 1e-13 * np.sum(np.abs(y))


def _kahan_cumsum_complex_reference(y):
    """Separate extended-precision cumsums of the real and imaginary parts."""
    y = np.asarray(y, dtype=np.complex128)
    re = np.cumsum(y.real.astype(np.longdouble))
    im = np.cumsum(y.imag.astype(np.longdouble))
    return (re + 1j * im).astype(np.complex128)


def test_kahan_cumsum_complex_matches_componentwise_formula():
    # shifted decaying terms, the Hurwitz MZV partial-sum shape, and mixed signs
    n = np.arange(0, 200001, dtype=complex)
    rng = np.random.default_rng(2)
    for y in ((0.3 + 0.2j + n[1:]) ** -2.0,
              rng.standard_normal(20000) + 1j * rng.standard_normal(20000)):
        out = kahan_cumsum(y)
        assert out.dtype == np.complex128
        assert np.array_equal(out, _kahan_cumsum_complex_reference(y))
    assert kahan_cumsum(np.ones(3)).dtype == np.float64

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from multiwp import meisen
from multiwp.core import EvalConfig, Index, compositions_ge2
from multiwp.kernels import LatticeRegion, ordered_sum
from multiwp.mzv import mzv
from multiwp.weier import _row_sum, eisenstein_G, lipschitz_psi
from multiwp.meisen import (MultitangentReduction, QOrderError, _meis_qexp_cached,
                            _p_matrix, _suffix_dp, g_function, g_function_direct,
                            meis_direct, meis_direct_error, meis_qexp, monotangent,
                            multitangent_direct, multitangent_reduce)

TAU = 2j


def test_monotangent_exact_point():
    # sum over n of (1/2 + n)^-2 = pi^2 / sin^2(pi/2)
    assert abs(_row_sum(0.5 + 0j, 2001, 2) - math.pi**2) < 1e-12


def test_monotangent_dual_and_periodic():
    z = 0.3 + 0.7j
    d = _row_sum(z, 40001, 3)
    q = lipschitz_psi(3, z)
    assert abs(d - q) < 1e-9
    assert abs(monotangent(2, z) - monotangent(2, z + 1)) < 1e-14
    assert abs(monotangent(2, z) - monotangent(2, z - 5)) < 1e-14
    with pytest.raises(ValueError):
        lipschitz_psi(2, 0.5)
    with pytest.raises(ValueError):
        monotangent(1, 0.5)


def test_multitangent_reduction_known_coefficients():
    # Psi_{2,2} = 2 zeta(2) Psi_2 ; Psi_{2,3} = 3 zeta(3) Psi_2 + zeta(2) Psi_3
    red = multitangent_reduce((2, 2)).coefficients()
    assert set(red) == {2}
    assert abs(red[2] - 2 * mzv((2,)).real) < 1e-12
    red = multitangent_reduce((2, 3)).coefficients()
    assert abs(red[2] - 3 * mzv((3,)).real) < 1e-12
    assert abs(red[3] - mzv((2,)).real) < 1e-12
    red = multitangent_reduce((3, 2)).coefficients()
    assert abs(red[2] + 3 * mzv((3,)).real) < 1e-12
    assert abs(red[3] - mzv((2,)).real) < 1e-12


def test_multitangent_weight_bookkeeping():
    for ix in [(2, 2), (2, 3), (2, 2, 2), (4, 2), (2, 3, 2)]:
        red = multitangent_reduce(ix)
        assert red.terms, ix
        for c, za, zb, n in red.terms:
            assert za.weight + zb.weight + n == sum(ix)
            assert n >= 2


def test_multitangent_depth1_and_errors():
    red = multitangent_reduce((5,))
    assert red.coefficients() == {5: 1.0}
    with pytest.raises(ValueError):
        multitangent_reduce((1, 2))
    with pytest.raises(ValueError):
        multitangent_reduce((2, 1))


def test_multitangent_reduction_vs_direct_sum():
    z = 0.3 + 0.6j
    for ix in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]:
        red = multitangent_reduce(ix).evaluate(z)
        direct = multitangent_direct(ix, z, N=60000)
        assert abs(red - direct) < 2e-4, ix


def test_multitangent_reduction_interior_one_vs_direct_sum():
    # an interior part 1 couples n_j >= 1 (C(n_j - 1, 0) = 1); the direct sum
    # converges like 1/N, 8.4e-4 away at N = 40000
    z = 0.3 + 0.6j
    for ix in [(3, 1, 2), (2, 1, 3)]:
        red = multitangent_reduce(ix).evaluate(z)
        assert abs(red - multitangent_direct(ix, z, N=40000)) < 2e-3, ix


@dataclass(frozen=True)
class WordDecomposition:
    """One way of grouping (k_1..k_r) into an m=0 prefix and m>0 blocks.

    boundaries are the appendix-style cut positions t_0 = 1 < t_1 < ... <
    t_h = r+1 over the block part of the index.
    """

    mzv_prefix: Index
    blocks: tuple[Index, ...]

    @property
    def boundaries(self) -> tuple[int, ...]:
        out = [1]
        for b in self.blocks:
            out.append(out[-1] + len(b))
        return tuple(out)


def word_splittings(index):
    """All splittings of an index into m=0 prefix + ordered positive-m blocks
    (the reference enumeration behind the suffix DP)."""
    index = Index(index)
    r = index.depth
    for j in range(r + 1):
        prefix, rest = Index(index[:j]), index[j:]
        n = len(rest)
        if n == 0:
            yield WordDecomposition(prefix, ())
            continue
        for mask in range(1 << (n - 1)):
            blocks = []
            cur = [rest[0]]
            for i in range(1, n):
                if mask >> (i - 1) & 1:
                    blocks.append(Index(cur))
                    cur = [rest[i]]
                else:
                    cur.append(rest[i])
            blocks.append(Index(cur))
            yield WordDecomposition(prefix, tuple(blocks))


def test_word_splittings():
    sps = list(word_splittings(Index((2, 3, 4))))
    assert all(isinstance(s, WordDecomposition) for s in sps)
    # prefix length j leaves 2^{(3-j)-1} block cuts (1 when empty)
    assert len(sps) == 4 + 2 + 1 + 1
    full = [s for s in sps if s.mzv_prefix.depth == 3]
    assert len(full) == 1 and not full[0].blocks
    two_blocks = [s for s in sps if s.mzv_prefix.depth == 0 and len(s.blocks) == 2]
    assert {tuple(map(tuple, s.blocks)) for s in two_blocks} == \
        {((2,), (3, 4)), ((2, 3), (4,))}
    assert sps[0].boundaries[0] == 1 and sps[0].boundaries[-1] == \
        sum(len(b) for b in sps[0].blocks) + 1


@pytest.mark.parametrize("tau", [0.5 + 0.6j, 0.3 + 1.1j, 2j, -0.4 + 5j, 40j])
def test_tilde_rows_stop_where_the_rows_fall_below_1e_20(tau):
    # the smallest R >= 1 with e^{-2 pi (R Im tau - h)} <= 1e-20, capped by M
    decay = 20 * math.log(10) / (2 * math.pi)
    prev = 1
    for h in np.linspace(-1.0, 3.0, 41):
        xs = [0.2 - 0.3j, 0.1 + 1j * h, -0.4]
        R = meisen.tilde_rows(xs, tau, 10**6)
        top = max(0.0, h)
        assert R >= prev, h  # more rows as Im x rises, never fewer
        assert R * tau.imag - top >= decay * (1 - 1e-12), h
        assert R == 1 or (R - 1) * tau.imag - top < decay * (1 + 1e-12), h
        for M in (1, 2, 5, 12):
            assert meisen.tilde_rows(xs, tau, M) == min(M, R)
        prev = R
    assert meisen.tilde_rows([-3j], tau, 10**6) == meisen.tilde_rows([0.0], tau, 10**6)


def test_meis_direct_even_depth1():
    # Gt_k = G_k / 2 for even k
    got = meis_direct((4,), 1j, EvalConfig(M=24, N=6000))
    assert abs(got - eisenstein_G(4, 1j) / 2) < 1e-8


def test_meis_direct_of_the_empty_index_is_one():
    for tau in (1j, 0.3 + 1.1j):
        assert meis_direct((), tau) == 1 + 0j == meis_qexp((), tau)


def test_meis_direct_error_of_the_empty_index_is_exact():
    value, estimate = meis_direct_error((), 1j, EvalConfig(M=3, N=100))
    assert (value, estimate) == (1 + 0j, 0.0)
    assert type(value) is complex and type(estimate) is float


def test_meis_direct_odd_depth1_stability():
    v1 = meis_direct((3,), TAU, EvalConfig(M=50, N=500))
    v2 = meis_direct((3,), TAU, EvalConfig(M=100, N=1000))
    assert v1.imag != 0
    # truncated-sum refinement stability (the plain sum converges ~ M^2/N^3)
    assert abs(v1 - v2) < 5e-5
    assert abs(v2 - meis_qexp((3,), TAU)) < abs(v1 - meis_qexp((3,), TAU))


def test_meis_qexp_constant_term():
    # q -> 0: the multiple Eisenstein series tends to the multiple zeta value
    for ix in [(3,), (2, 2), (2, 3), (3, 2, 2)]:
        assert abs(meis_qexp(ix, 60j) - mzv(ix).real) < 1e-13, ix


def test_meis_dual_pipeline():
    cfg = EvalConfig(M=80, N=800)
    for tau in (1j, TAU, 0.5 + 2j):
        for w in range(2, 8):
            for ix in compositions_ge2(w):
                qe = meis_qexp(ix, tau)
                de, est = meis_direct_error(ix, tau, cfg)
                allowed = 3 * est + 1e-8 * (1 + abs(qe))
                assert abs(qe - de) <= allowed, (ix, tau)
                assert allowed <= 1e-6 * (1 + abs(qe)), (ix, tau)


def test_meis_direct_error_is_three_single_level_sums_extrapolated():
    # the one three-level sweep gives the values of three separate sweeps
    cfg = EvalConfig(M=5, N=90)
    for tau in (1j, 0.3 + 1.1j):
        for ix in [(2,), (3,), (2, 2), (3, 2), (2, 4, 2), (2, 2, 3, 2)]:
            zeros = [0.0] * len(ix)
            rows = meisen.tilde_rows(zeros, tau, cfg.M)
            v1, v2, v4 = ((-1) ** (sum(ix) % 2) * ordered_sum(
                LatticeRegion.above_zero(tau, rows, n), zeros, list(ix), ix[-1] == 2, 0.0)[0]
                for n in (cfg.N, 2 * cfg.N, 4 * cfg.N))
            value = (8 * v4 - 6 * v2 + v1) / 3
            estimate = abs(value - (2 * v4 - v2))
            assert meis_direct_error(ix, tau, cfg) == (value, estimate), (ix, tau)
            assert meis_direct(ix, tau, cfg) == value


def test_meis_direct_meets_the_q_pipeline_to_weight_10():
    # the extrapolated lattice oracle against meis_qexp on every admissible
    # index of weight <= 10; the worst case measured is 1.7e-9
    cfg = EvalConfig(M=12, N=2000)
    for tau in (1j, 0.3 + 1.1j):
        for w in range(2, 11):
            for ix in compositions_ge2(w):
                qe = meis_qexp(ix, tau)
                assert abs(meis_direct(ix, tau, cfg) - qe) <= 1e-8 * (1 + abs(qe)), (ix, tau)


def test_meis_qexp_q_order_guard():
    with pytest.raises(QOrderError):
        meis_qexp((2,), 0.05j)
    with pytest.raises(ValueError):
        meis_qexp((1, 2), TAU)
    with pytest.raises(TypeError):  # the q_order parameter is gone
        meis_qexp((2,), TAU, q_order=64)


def test_meis_qexp_q_term_cap_threshold():
    # depth 4 needs 65 q-terms at Im tau = 0.11 and 60 at 0.12; the cap is 64
    with pytest.raises(QOrderError, match="needs ~65 q-terms, above the cap of 64"):
        meis_qexp((2, 2, 2, 2), 0.11j)
    assert np.isfinite(meis_qexp((2, 2, 2, 2), 0.12j))


def _loop_m_dp(pvals):
    """sum over 0 < m_1 < ... < m_h <= mmax of prod_i pvals[i][m_i - 1], by a
    Python loop over m per factor."""
    mmax = len(pvals[0])
    A = [1.0 + 0.0j] * (mmax + 1)
    for P in pvals:
        run = 0.0 + 0.0j
        Anew = [0.0 + 0.0j] * (mmax + 1)
        for m in range(1, mmax + 1):
            run += P[m - 1] * A[m - 1]
            Anew[m] = run
        A = Anew
    return A[mmax]


def _p_matrix_by_rows(x, dmax, nmax):
    """P_n(x_m) = sum_{d=1}^{dmax} d^{n-1} x_m^d, one product per n = 2..nmax."""
    d = np.arange(1.0, dmax + 1)
    xpow = x[None, :] ** d[:, None]
    return np.array([(d ** (n - 1)) @ xpow for n in range(2, nmax + 1)])


def _meis_qexp_by_splittings(ix, tau):
    """Gt by the word splittings: for each splitting and each product of the
    block reductions, one ordered m-sum of monotangent q-series, with the
    truncation of meis_qexp."""
    ix = Index(ix)
    q = complex(np.exp(2j * math.pi * tau))
    need = int(np.ceil(math.log(1e-18) / math.log(abs(q)))) + ix.depth + 1
    mmax, dmax = need, max(need, 8)
    P = _p_matrix_by_rows(q ** np.arange(1, mmax + 1), dmax, ix.weight)
    total = 0.0 + 0.0j
    for sp in word_splittings(ix):
        pre = mzv(sp.mzv_prefix).value if sp.mzv_prefix.depth else 1.0
        reds = [multitangent_reduce(b).coefficients().items() for b in sp.blocks]
        for choice in itertools.product(*reds):
            term = pre
            for n, c in choice:
                term *= c * (-2j * math.pi) ** n / math.factorial(n - 1)
            total += term * (_loop_m_dp([P[n - 2] for n, _ in choice]) if choice else 1.0)
    return total


def test_meis_qexp_matches_word_splitting_sum():
    for tau in (0.8j, -0.45 + 0.95j, 0.5 + 0.87j, 0.3 + 1.3j, 2j):
        for w in range(2, 13):
            for ix in compositions_ge2(w):
                ref = _meis_qexp_by_splittings(ix, tau)
                assert abs(meis_qexp(ix, tau) - ref) <= 1e-12 * (1 + abs(ref)), (ix, tau)


def _p_matrix_cases():
    """(x, dmax, nmax) at the shapes of the callers: meis_qexp (x = q^m,
    dmax <= 64) and the strip routes (x = xi q^m, dmax = 4 need <= 256)."""
    for tau in (2j, 0.3 + 1.3j, 0.8j, -0.45 + 0.95j, 0.5 + 0.4j, 0.13j, -0.2 + 0.12j):
        q = complex(np.exp(2j * math.pi * tau))
        for r, w in ((1, 2), (1, 16), (3, 9), (6, 16), (8, 16)):
            need = int(np.ceil(math.log(1e-18) / math.log(abs(q)))) + r + 1
            if need <= 64:
                yield q ** np.arange(1, need + 1), max(need, 8), w
            for z in (0.2 + 0.5 * tau.imag * 1j, 0.37 - 0.6 * tau.imag * 1j,
                      -0.1 + 0.9 * tau.imag * 1j):
                xi = complex(np.exp(2j * math.pi * z))
                need = int(np.ceil(math.log(1e-18) / math.log(max(abs(xi * q), abs(q))))) + r + 1
                if need <= 64:
                    yield xi * q ** np.arange(1, need + 1), 4 * need, w


def test_p_matrix_matches_per_row_products():
    # the one-product table against one product per n.  The bound is relative
    # to each entry's sum of absolute terms: where the phases of x_m^d cancel,
    # any change of summation order moves the entry by that much (the tiny
    # absolute term covers subnormal powers)
    shapes = set()
    for x, dmax, nmax in _p_matrix_cases():
        got, ref = _p_matrix(x, dmax, nmax), _p_matrix_by_rows(x, dmax, nmax)
        scale = _p_matrix_by_rows(np.abs(x).astype(complex), dmax, nmax).real
        assert got.shape == ref.shape == (nmax - 1, len(x))
        assert np.all(np.abs(got - ref) <= 1e-14 * scale + 1e-300), (dmax, nmax)
        shapes.add(dmax)
    assert min(shapes) == 8 and max(shapes) == 256


def test_d_power_table_is_bounded_and_read_only():
    meisen._d_powers.cache_clear()
    maxsize = meisen._d_powers.cache_info().maxsize
    assert maxsize is not None
    for dmax in range(8, 8 + maxsize + 20):
        D = meisen._d_powers(dmax, 5)
        assert D.shape == (4, dmax) and not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 2.0
    assert meisen._d_powers.cache_info().currsize == maxsize
    # the table behind _p_matrix is the cached one
    x = np.array([0.1 + 0.2j, 0.01j])
    _p_matrix(x, 9, 4)
    hits = meisen._d_powers.cache_info().hits
    _p_matrix(2 * x, 9, 4)
    assert meisen._d_powers.cache_info().hits == hits + 1


def test_suffix_dp_matches_nested_loops():
    # the DP against the splitting sum: prefix[j] times one nested-loop m-sum
    # per splitting, with random block rows in the _amplitude_matrix layout
    rng = np.random.default_rng(7)
    for r in range(1, 5):
        rows = {(i, t): row for row, (i, t) in enumerate(
            (i, t) for i in range(r - 1, -1, -1) for t in range(i + 1, r + 1))}
        for mmax in (1, r, 5, 9):
            Q = ((rng.normal(size=(len(rows), mmax)) + 1j * rng.normal(size=(len(rows), mmax)))
                 * 10.0 ** rng.integers(-6, 7, size=(len(rows), 1)))
            prefix = rng.normal(size=r + 1) + 1j * rng.normal(size=r + 1)
            ref, scale = 0.0, 0.0
            for sp in word_splittings(range(2, r + 2)):
                i, pvals = sp.mzv_prefix.depth, []
                for b in sp.blocks:
                    pvals.append(Q[rows[(i, i + len(b))]])
                    i += len(b)
                j = sp.mzv_prefix.depth
                ref += prefix[j] * (_loop_m_dp(pvals) if pvals else 1.0)
                scale += abs(prefix[j]) * math.prod(np.abs(P).sum() for P in pvals)
            assert abs(_suffix_dp(Q, prefix) - ref) <= 1e-14 * scale, (r, mmax)


def test_meis_qexp_tau_cache_is_bounded():
    maxsize = _meis_qexp_cached.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 50):
        meis_qexp((2,), 1.5j + k * 1e-5)
    assert _meis_qexp_cached.cache_info().currsize <= maxsize


def test_meis_qexp_tau_free_tables_are_cached(monkeypatch):
    # mzv() and the reduction coefficients do not depend on tau: once an
    # index has been evaluated, a new tau calls neither
    calls = {"mzv": 0, "coefficients": 0}
    mzv_fn, coefficients_fn = meisen.mzv, MultitangentReduction.coefficients

    def counted_mzv(*a, **kw):
        calls["mzv"] += 1
        return mzv_fn(*a, **kw)

    def counted_coefficients(*a, **kw):
        calls["coefficients"] += 1
        return coefficients_fn(*a, **kw)

    monkeypatch.setattr(meisen, "mzv", counted_mzv)
    monkeypatch.setattr(MultitangentReduction, "coefficients", counted_coefficients)
    for table in (meisen._block_amplitudes, meisen._prefix_values, meisen._amplitude_matrix):
        table.cache_clear()
    # the q-order guard fires before any table is built
    with pytest.raises(QOrderError):
        meis_qexp((2, 3, 2, 4), 0.05j)
    assert calls == {"mzv": 0, "coefficients": 0}
    taus = [0.137 + 1.01j + 0.0173 * k * (1 + 1j) for k in range(20)]
    meis_qexp((2, 3, 2, 4), taus[0])
    assert calls["mzv"] > 0 and calls["coefficients"] > 0
    calls.update(mzv=0, coefficients=0)
    for tau in taus[1:]:
        meis_qexp((2, 3, 2, 4), tau)
    assert calls == {"mzv": 0, "coefficients": 0}


def test_g_function_dual():
    for ix, z in [((2,), 0.2 + 0.5j), ((2, 2), 0.2 + 0.5j), ((3, 2), 0.1 + 0.9j)]:
        gq = g_function(ix, z, TAU)
        gd = g_function_direct(ix, z, TAU)
        assert abs(gq - gd) < 1e-10, ix
    assert g_function((), 0.1 + 0.5j, TAU) == 1.0
    # reflected argument stays inside the strip condition
    gq = g_function((2,), -(0.2 + 0.5j), TAU)
    gd = g_function_direct((2,), -(0.2 + 0.5j), TAU)
    assert abs(gq - gd) < 1e-10
    with pytest.raises(ValueError):
        g_function((2,), -0.2 - 2.5j, TAU)


def test_g_function_depth_3_and_4_vs_direct():
    # relative, since g at depth 4 is as small as 1e-16 here; the direct rows
    # lose ~1e-17 absolute to cancellation once Im(z + m tau) is large, which
    # puts the direct value of the smallest g ~1e-9 off
    tau, z = 0.1 + 0.7j, 0.2 + 0.3j
    for ix in [(2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 2, 2), (3, 2, 2, 2)]:
        for zz in (z, -z):
            gq = g_function(ix, zz, tau)
            gd = g_function_direct(ix, zz, tau)
            assert abs(gq - gd) <= 1e-8 * abs(gd), (ix, zz)


def test_word_decomposition_completeness():
    # wp_{k_r..k_1}(z) = sum over words of ordered m-sums of multitangent blocks
    from multiwp.multip import multiwp_direct

    z = 0.23 + 0.31j
    MW = 12
    for ix in [(2, 2), (3, 2), (2, 2, 2)]:
        ix = Index(ix)
        total = 0.0 + 0.0j
        # all cuts of (k_1..k_r) into h >= 1 consecutive blocks, each block
        # summed over -MW < m_1 < ... < m_h < MW (the appendix ws-display)
        for sp in word_splittings(ix):
            if sp.mzv_prefix:
                continue
            blocks = sp.blocks
            reds = [multitangent_reduce(b).coefficients() for b in blocks]

            def block_val(bi, m):
                return sum(c * _row_sum(z + m * TAU, 4001, nn) for nn, c in reds[bi].items())

            def rec(bi, mprev):
                if bi == len(blocks):
                    return 1.0
                return sum(block_val(bi, m) * rec(bi + 1, m)
                           for m in range(mprev + 1, MW))

            total += rec(0, -MW)
        want = multiwp_direct(ix.reversed(), z, TAU, EvalConfig(M=14, N=2000))
        assert abs(total - want) < 2e-5, ix

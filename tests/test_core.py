from fractions import Fraction
from math import comb

import pytest

from multiwp.core import (EvalConfig, Index, Partition, TruncatedSeries, bernoulli,
                          beta, beta_prime, compositions_fixed, compositions_ge2,
                          couplings, partition_trace,
                          partitions, phi_log, stuffle,
                          stuffle_combination, stuffle_expand)
from multiwp.weier import phi_exp


def test_index_basics():
    ix = Index((2, 3))
    assert ix.weight == 5 and ix.depth == 2 and ix.admissible
    assert ix.reversed() == Index((3, 2))
    assert Index(()).weight == 0 and Index(()).depth == 0
    assert not Index((2, 1)).admissible
    with pytest.raises(ValueError):
        Index((0, 2))


def test_partitions_enumeration():
    assert [p.parts for p in partitions(0)] == [()]
    assert [p.parts for p in partitions(1)] == [(1,)]
    assert [p.parts for p in partitions(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # p(r) for r = 0..9
    assert [len(partitions(r)) for r in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    lam = Partition((3, 1, 1))
    assert lam.size == 5 and lam.length == 3 and lam.mult == {3: 1, 1: 2}


def test_trace_weights():
    lam2 = Partition((2,))
    lam11 = Partition((1, 1))
    assert beta(lam2) == Fraction(1, 2)
    assert beta(lam11) == Fraction(1, 2)
    assert beta_prime(lam2) == Fraction(1, 4)
    assert beta_prime(lam11) == Fraction(1, 8)
    assert phi_log(lam2) == 1
    assert phi_log(lam11) == Fraction(1, 2)
    assert phi_exp(lam11) == Fraction(1, 2)


def test_partition_trace_examples():
    assert partition_trace(beta, [], 0) == 1
    X1, X2 = Fraction(3, 7), Fraction(-2, 5)
    assert partition_trace(beta, [X1], 1) == X1
    assert partition_trace(beta, [X1, X2], 2) == X1 * X1 / 2 + X2 / 2
    with pytest.raises(ValueError):
        partition_trace(beta, [X1], 2)
    with pytest.raises(ValueError):
        partition_trace(beta, [X1], -1)


def test_exponential_formula():
    # coefficient of Y^r in exp(sum x_k Y^k) is Tr_r(phi_exp; x)
    xs = [Fraction(n, d) for n, d in [(1, 2), (-2, 3), (1, 5), (3, 7), (-1, 2),
                                      (2, 9), (1, 3), (-3, 4), (1, 7), (2, 5)]]
    T = 10
    s = TruncatedSeries([Fraction(0)] + xs[:T], var="Y")
    e = s.exp()
    for r in range(T + 1):
        assert e[r] == partition_trace(phi_exp, xs, r)


def test_girard_newton_sign():
    # log(1 - sum x_r Y^r) = -sum_r Tr_r(phi_log; x) Y^r: the stated identity
    # needs this leading minus (at r = 2 the unsigned version is wrong).
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7), Fraction(1, 4),
          Fraction(2, 5), Fraction(-1, 6), Fraction(1, 8), Fraction(3, 5)]
    T = 8
    u = TruncatedSeries([Fraction(1)] + [-x for x in xs[:T]], var="Y")
    lg = u.log()
    for r in range(1, T + 1):
        assert lg[r] == -partition_trace(phi_log, xs, r)
    assert lg[2] != partition_trace(phi_log, xs, 2)  # printed sign fails


def test_stuffle_examples():
    assert stuffle((2,), (3,)) == {Index((2, 3)): 1, Index((3, 2)): 1, Index((5,)): 1}
    assert stuffle((), (2, 7)) == {Index((2, 7)): 1}
    assert stuffle((2,), (2,)) == {Index((2, 2)): 2, Index((4,)): 1}


def test_stuffle_result_is_a_fresh_dict():
    first = stuffle((2,), (3,))
    assert all(type(w) is Index for w in first)
    first[Index((2, 3))] = 7
    del first[Index((5,))]
    first[Index((9,))] = 1
    assert stuffle((2,), (3,)) == {Index((2, 3)): 1, Index((3, 2)): 1, Index((5,)): 1}
    assert stuffle((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert stuffle((2,), (3,)) is not stuffle((2,), (3,))


def _compositions_fixed_recursive(total, r, minpart):
    if r == 0:
        if total == 0:
            yield ()
        return
    for first in range(minpart, total - minpart * (r - 1) + 1):
        for rest in _compositions_fixed_recursive(total - first, r - 1, minpart):
            yield (first,) + rest


def test_compositions_fixed_matches_recursion():
    for total in range(-1, 11):
        for r in range(0, 6):
            for minpart in range(0, 3):
                assert list(compositions_fixed(total, r, minpart)) == \
                    list(_compositions_fixed_recursive(total, r, minpart)), (total, r, minpart)


def _compositions(w):
    if w == 0:
        return [()]
    return [(f,) + r for f in range(1, w + 1) for r in _compositions(w - f)]


def test_stuffle_commutative_small():
    for w1 in range(1, 5):
        for w2 in range(1, 5):
            for a in _compositions(w1):
                for b in _compositions(w2):
                    assert stuffle(a, b) == stuffle(b, a)


def test_stuffle_associative_small():
    for w1 in range(1, 4):
        for w2 in range(1, 4):
            for w3 in range(1, 4):
                for a in _compositions(w1):
                    for b in _compositions(w2):
                        for c in _compositions(w3):
                            lhs = stuffle_combination(stuffle(a, b), {Index(c): 1})
                            rhs = stuffle_combination({Index(a): 1}, stuffle(b, c))
                            assert lhs == rhs


def test_stuffle_expand_matches_nested_combinations():
    a, b, c = (2,), (3, 2), (1, 4)
    want = stuffle_combination(stuffle(a, b), {Index(c): 1})
    got = stuffle_expand([(Fraction(1, 3), (a, b, c)), (Fraction(2, 3), (a, b, c))])
    assert got == want
    # no words give the unit, one word itself; opposite terms cancel and drop
    assert stuffle_expand([(5, ())]) == {Index(()): 5}
    assert stuffle_expand([(2, (a,))]) == {Index(a): 2}
    assert stuffle_expand([(1, (a, b)), (-1, (b, a))]) == {}


def test_stuffle_weight_graded():
    for word, c in stuffle((2, 4), (3,)).items():
        assert word.weight == 9 and c > 0


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_compositions_ge2():
    assert compositions_ge2(0) == (Index(()),)
    assert compositions_ge2(2) == (Index((2,)),)
    assert compositions_ge2(3) == (Index((3,)),)
    assert set(compositions_ge2(6)) == {Index(c) for c in
                                        [(6,), (2, 4), (4, 2), (3, 3), (2, 2, 2)]}
    assert list(compositions_ge2(7)) == sorted(compositions_ge2(7))
    # a(k) = sum_{j >= 2} a(k - j)
    a = [len(compositions_ge2(k)) for k in range(15)]
    for k in range(2, 15):
        assert a[k] == sum(a[k - j] for j in range(2, k + 1))
    assert a[9] == 21


def test_series_arithmetic():
    one = TruncatedSeries([1, 0, 0], var="Y")
    s = TruncatedSeries([2, -1, 3], var="Y")
    assert one * s == s
    a = TruncatedSeries([1, 1, 0], var="Y")
    b = TruncatedSeries([1, -1, 0], var="Y")
    assert (a * b).coeffs == [1, 0, -1]
    with pytest.raises(ValueError):
        a * TruncatedSeries([1, 0], var="q")
    # truncation to min order
    assert (TruncatedSeries([1, 2], var="Y") * s).order == 1


def test_series_exp_log_roundtrip():
    xs = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7),
          Fraction(2, 5), Fraction(-3, 4), Fraction(1, 9), Fraction(1, 2),
          Fraction(-2, 7)]
    s = TruncatedSeries(xs, var="Y")
    back = s.exp().log()
    assert back == s
    inv = s.exp().inverse()
    assert (s.exp() * inv).coeffs[0] == 1
    assert all(c == 0 for c in (s.exp() * inv).coeffs[1:])


def test_eval_config_validation():
    cfg = EvalConfig()
    assert cfg.M == 80 and cfg.N == 800
    assert EvalConfig(M=10, N=5).M == 10  # M is a cap on the rows, not tied to N
    with pytest.raises(ValueError):     # no lattice point w > 0
        EvalConfig(M=1, N=1)
    with pytest.raises(ValueError):
        EvalConfig(tol=0.0)


def _coupling_reference(index, total, free, n_free):
    """Every composition of total into len(index) parts >= 0, filtered: n_i
    must equal n_free when that is given, and zero binomials are dropped."""
    out = []
    for ns in compositions_fixed(total, len(index), 0):
        if n_free is not None and ns[free] != n_free:
            continue
        c = 1
        for j, (n, k) in enumerate(zip(ns, index)):
            if j != free:
                c *= comb(n - 1, k - 1) if n >= k else 0
        if c == 0:
            continue
        if free is not None and (index[free] + sum(ns[free:])) % 2:
            c = -c
        out.append((ns, c))
    return out


def test_couplings_match_filtered_compositions():
    # admissible indices of weight <= 10 at totals w (reductions, antipode)
    # and w + 2 (Taylor coefficients), and every index with parts of 1 up to
    # weight 7: the reference sweeps C(total + r - 1, r - 1) compositions
    cases = [(ix, total) for w in range(2, 11) for ix in compositions_ge2(w)
             for total in (w, w + 2)]
    cases += [(ix, w) for w in range(1, 8) for ix in _compositions(w) if 1 in ix]
    checked = 0
    for ix, total in cases:
        assert list(couplings(ix, total)) == _coupling_reference(ix, total, None, None)
        for i in range(len(ix)):
            for n_free in (0, 1, None):
                got = list(couplings(ix, total, i, n_free))
                assert got == _coupling_reference(ix, total, i, n_free), (ix, total, i, n_free)
                checked += len(got)
    assert checked > 15000

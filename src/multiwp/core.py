"""Shared combinatorial substrate: indices, partitions, partition traces,
the quasi-shuffle (stuffle) product and its expansion of symbol products,
the binomial coupling of the reduction theorem, Bernoulli numbers,
truncated power series, the evaluation configuration, and the error a capped
series raises.

Everything here is exact (integers / `fractions.Fraction`); floating point
enters only through the callers.  All values are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Callable, Iterable, Sequence


class ConvergenceError(ArithmeticError):
    """A series reached its term cap before its stopping test held."""


class Index(tuple):
    """A composition (k_1, ..., k_r) of positive integers.

    The empty index is allowed (weight 0, depth 0) and acts as the unit of
    the stuffle product.
    """

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"index parts must be positive, got {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def admissible(self) -> bool:
        """Admissible for lattice sums: every part >= 2."""
        return all(p >= 2 for p in self)

    def reversed(self) -> "Index":
        return Index(self[::-1])

    def __repr__(self) -> str:
        return "Index(%s)" % (",".join(map(str, self)) or "-")


class Partition:
    """Integer partition stored by multiplicities {part: count}."""

    __slots__ = ("mult", "_parts")

    def __init__(self, parts: Iterable[int]):
        parts = sorted((int(p) for p in parts), reverse=True)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        self._parts = tuple(parts)
        mult: dict[int, int] = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        self.mult = mult

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return "Partition%r" % (self._parts,)


@lru_cache(maxsize=None)
def partitions(r: int) -> tuple[Partition, ...]:
    """All partitions of r, largest-first lexicographic order; p(0) = [()]."""
    if r < 0:
        raise ValueError("r must be >= 0")

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield []
            return
        for p in range(min(maxpart, remaining), 0, -1):
            for rest in gen(remaining - p, p):
                yield [p] + rest

    return tuple(Partition(p) for p in gen(r, r))


TraceWeight = Callable[[Partition], Fraction]


def beta(lam: Partition) -> Fraction:
    """beta(lambda) = prod 1/(m_k! k^m_k)."""
    out = Fraction(1)
    for k, m in lam.mult.items():
        out /= Fraction(factorial(m) * k**m)
    return out


def beta_prime(lam: Partition) -> Fraction:
    """beta'(lambda) = beta(lambda) / 2^len(lambda)."""
    return beta(lam) / 2 ** lam.length


def phi_log(lam: Partition) -> Fraction:
    """phi_log(lambda) = (len(lambda)-1)! prod 1/m_k!.

    Note: with this normalization the series identity reads
    log(1 - sum x_r Y^r) = - sum_r Tr_r(phi_log; x) Y^r; the leading minus
    sign is checked explicitly in the tests.
    """
    out = Fraction(factorial(lam.length - 1))
    for m in lam.mult.values():
        out /= factorial(m)
    return out


def partition_trace(phi: TraceWeight, X: Sequence, r: int):
    """Tr_r(phi; X_1..X_r) = sum_{lambda |- r} phi(lambda) prod X_k^{m_k}.

    Tr_0 = 1 (empty partition).  X may hold any ring elements that support
    multiplication with each other and with Fraction.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return 1
    if len(X) < r:
        raise ValueError(f"need at least {r} values, got {len(X)}")
    total = None
    for lam in partitions(r):
        term = phi(lam)
        for k, m in lam.mult.items():
            for _ in range(m):
                term = term * X[k - 1]
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# stuffle (quasi-shuffle / harmonic) product
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stuffle_words(a: tuple, b: tuple) -> tuple[tuple[tuple, int], ...]:
    """The stuffle product of two words as (word, multiplicity) pairs in
    sorted word order, the words plain tuples."""
    if not a:
        return ((tuple(b), 1),)
    if not b:
        return ((tuple(a), 1),)
    out: dict[tuple, int] = {}
    for word, c in _stuffle_words(a[1:], b):
        w = (a[0],) + word
        out[w] = out.get(w, 0) + c
    for word, c in _stuffle_words(a, b[1:]):
        w = (b[0],) + word
        out[w] = out.get(w, 0) + c
    for word, c in _stuffle_words(a[1:], b[1:]):
        w = (a[0] + b[0],) + word
        out[w] = out.get(w, 0) + c
    return tuple(sorted(out.items()))


def stuffle(a: Iterable[int], b: Iterable[int]) -> dict[Index, int]:
    """Quasi-shuffle product of two compositions with part-addition merge.

    stuffle((2,), (3,)) == {(2,3): 1, (3,2): 1, (5,): 1}; the empty index is
    the unit.  Multiple zeta values, multiple Eisenstein series and multiple
    wp-functions all satisfy this product on their indices.  The words come
    in sorted order.
    """
    # every part of a product word is a part of a or b, or a sum of two
    # such parts: validate the inputs and wrap the words as they are
    words = _stuffle_words(Index(a), Index(b))
    return {tuple.__new__(Index, w): m for w, m in words}


def stuffle_expand(terms) -> dict:
    """sum of c * (w_1 * ... * w_n) over the (c, (w_1, ..., w_n)) terms, each
    product expanded by the stuffle; zero coefficients are dropped.  No words
    give the empty index, the stuffle unit."""
    out: dict[Index, object] = {}
    for c, words in terms:
        if len(words) == 2:
            prod = stuffle(*words)
        else:
            prod = {Index(): 1}
            for w in words:
                nxt: dict[Index, object] = {}
                for left, cl in prod.items():
                    for word, m in stuffle(left, w).items():
                        nxt[word] = nxt.get(word, 0) + cl * m
                prod = nxt
        for word, m in prod.items():
            s = out.get(word, 0) + c * m
            if s:
                out[word] = s
            elif word in out:
                del out[word]
    return out


def stuffle_combination(comb_a: dict, comb_b: dict) -> dict:
    """Bilinear extension of the stuffle product to linear combinations."""
    return stuffle_expand((ca * cb, (ia, ib)) for ia, ca in comb_a.items()
                          for ib, cb in comb_b.items())


# ---------------------------------------------------------------------------
# Bernoulli numbers and compositions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k with the B_1 = -1/2 convention."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    if k > 1 and k % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


@lru_cache(maxsize=None)
def compositions_ge2(k: int) -> tuple[Index, ...]:
    """All compositions of k into parts >= 2, lexicographically ordered."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def gen(total):
        if total == 0:
            yield ()
            return
        for first in range(2, total + 1):
            for rest in gen(total - first):
                yield (first,) + rest

    return tuple(sorted(Index(c) for c in gen(k)))


def compositions_fixed(total: int, r: int, minpart: int = 0):
    """Yield all (n_1..n_r) with n_i >= minpart summing to total, in
    lexicographic order (stars and bars: r - 1 bars among the free units)."""
    if r == 0:
        if total == 0:
            yield ()
        return
    free = total - minpart * r
    if free < 0:
        return
    last = free + r - 1
    for bars in combinations(range(last), r - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1 + minpart)
            prev = b
        parts.append(last - prev - 1 + minpart)
        yield tuple(parts)


@lru_cache(maxsize=None)
def _coupled_words(parts: tuple, total: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every (ns, c) with ns = (n_1..n_r) summing to total, n_j >= k_j, and
    c = prod_j C(n_j - 1, k_j - 1) for the parts k, in lexicographic order
    of ns; empty when total < sum(parts)."""
    if not parts:
        return (((), 1),) if total == 0 else ()
    k, rest = parts[0], parts[1:]
    out = []
    for n in range(k, total - sum(rest) + 1):
        c = comb(n - 1, k - 1)
        out.extend(((n,) + ns, c * cr) for ns, cr in _coupled_words(rest, total - n))
    return tuple(out)


def couplings(index: Sequence[int], total: int, free: int, n_free: int | None = None):
    """The binomial coupling of the reduction theorem.

    Yield (ns, c) for every ns = (n_1..n_r) summing to total with n_j >= k_j
    at each slot j other than the free slot i (0-based), where

        c = (-1)^(k_i + n_i + ... + n_r) prod_{j != i} C(n_j - 1, k_j - 1)

    is nonzero.  The free n_i is n_free when given and otherwise any n_i >= 0.
    The order is lexicographic in ns.  The slots after the free one
    come from the table of their coupled words, the ones before it are walked
    slot by slot.
    """
    k = tuple(index)
    tail = k[free + 1:]
    fixed = () if n_free is None else (n_free,)

    def walk(j, head, rest, c):
        # rest = n_j + ... + n_r still to place
        if j == free:
            if (k[free] + rest) % 2:
                c = -c
            for n in fixed or range(rest - sum(tail) + 1):
                for ns, ct in _coupled_words(tail, rest - n):
                    yield head + (n,) + ns, c * ct
            return
        kj = k[j]
        for n in range(kj, rest - sum(k[j + 1:free]) - sum(tail) - (n_free or 0) + 1):
            yield from walk(j + 1, head + (n,), rest - n, c * comb(n - 1, kj - 1))

    yield from walk(0, (), total, 1)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Power series truncated at a fixed order, over any commutative ring.

    Coefficients c_0..c_T; multiplication truncates to the smaller order of
    the two operands.  The variable tag is purely a safety check.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Sequence, var: str = "Y"):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")
        self.var = var

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n] if 0 <= n <= self.order else 0

    def _check(self, other: "TruncatedSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = list(self.coeffs)
            c[0] = c[0] + other
            return TruncatedSeries(c, self.var)
        self._check(other)
        T = min(self.order, other.order)
        return TruncatedSeries([self[n] + other[n] for n in range(T + 1)], self.var)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.var)
        self._check(other)
        T = min(self.order, other.order)
        out = []
        for n in range(T + 1):
            acc = None
            for j in range(n + 1):
                t = self[j] * other[n - j]
                acc = t if acc is None else acc + t
            out.append(acc)
        return TruncatedSeries(out, self.var)

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term: e_n = (1/n) sum j s_j e_{n-j}."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        T = self.order
        out = [1] + [None] * T
        for n in range(1, T + 1):
            acc = None
            for j in range(1, n + 1):
                t = j * self[j] * out[n - j]
                acc = t if acc is None else acc + t
            out[n] = _div(acc, n)
        return TruncatedSeries(out, self.var)

    def log(self) -> "TruncatedSeries":
        """log of a series with unit constant term: l_n = u_n - (1/n) sum j l_j u_{n-j}."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        T = self.order
        out = [0] + [None] * T
        for n in range(1, T + 1):
            acc = self[n]
            corr = None
            for j in range(1, n):
                t = j * out[j] * self[n - j]
                corr = t if corr is None else corr + t
            if corr is not None:
                acc = acc - _div(corr, n)
            out[n] = acc
        return TruncatedSeries(out, self.var)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be invertible."""
        T = self.order
        c0 = self.coeffs[0]
        inv0 = Fraction(1) / c0 if isinstance(c0, (int, Fraction)) else 1 / c0
        out = [inv0] + [None] * T
        for n in range(1, T + 1):
            acc = None
            for j in range(1, n + 1):
                t = self[j] * out[n - j]
                acc = t if acc is None else acc + t
            out[n] = -acc * inv0
        return TruncatedSeries(out, self.var)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        T = min(self.order, other.order)
        return all(self[n] == other[n] for n in range(T + 1))

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r}, var={self.var!r})"


def _div(c, n: int):
    """Divide a ring element by a positive integer."""
    if isinstance(c, Fraction):
        return c / n
    if isinstance(c, int):
        return Fraction(c, n)
    try:
        return c / n
    except TypeError:
        return c * (1.0 / n)


# ---------------------------------------------------------------------------
# evaluation configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    """Truncation and tolerance settings for lattice-sum evaluation.

    Only the direct lattice sums take one.  M: tau-direction half-width
    (|m| < M), N: integer-direction half-width (|n| < N), with the inner
    n-limit taken before the outer m-limit.  M >= 1 and N >= 2, so that the
    region w > 0 of the split and the direct series is not empty.

    M is a cap.  The split and restricted sums (`multiwp_direct`,
    `multiwp_multivar`, `meis_direct`, `meis_direct_error` and the kernel
    route of `multiwp_tilde`) sweep only the rows that tau asks for: the
    fewest with e^{-2 pi (R Im tau - h)} <= 1e-20, h the largest Im of the
    sweep's shifts (at least 0), as `meisen.tilde_rows` counts them.  In the
    N -> oo limit a row m enters only through multitangent factors of that
    size, so a row past them adds nothing but its N-truncation residue,
    which is error.  Each of them sweeps once over the 4N region, whose
    levels N, 2N and 4N the Richardson step `meisen._richardson` turns into
    a value and an error estimate.  `multiwp_raw`, the plain cross-check,
    sweeps all M rows at N alone.
    """

    M: int = 80
    N: int = 800
    tol: float = 1e-8

    def __post_init__(self):
        if not (self.M >= 1 and self.N >= 2):
            raise ValueError("need M >= 1 and N >= 2")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_CONFIG = EvalConfig()

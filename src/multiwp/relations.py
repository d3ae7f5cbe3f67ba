"""Formal relation engine over multiple-Eisenstein symbols.

A SymbolicCombination is an exact rational linear combination of admissible
indices (all parts >= 2) of one common weight, the carrier of linear
relations among multiple Eisenstein series.  The antipode relations come
from the vanishing derivative sum of the restricted-wp product factors.
Their stuffle closure is spanned, by bilinearity and associativity, by
products with single indices, and in each weight by the products with the
generators of the lower weights: the antipode relations that are not in
the span of their own weight's products.  One exact integer row reduction
per weight gives both the rank of its relation space and its generators.
Each weight has one column order, and every combination is a dense row of
Python ints over it with one positive common denominator; every antipode
coefficient is an integer, so each row the engine makes has denominator 1,
and a Fraction appears only in the terms of a combination with a larger
one.  The rows are built from a per-pair stuffle table in column form, and
RelationMatrix reduces them against sparse pivot rows.  An antipode
coefficient has n_i = 1 and factorises into a sign and the couplings of
its left and right words, which come from the coupling table of core.  A
reversed source gives the same relation up to sign,
antipode_relation(k[::-1]) == (-1)^{|k|-1} antipode_relation(k), so one
source of each mirror pair is used.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, pi

from .core import (Index, TruncatedSeries, _coupled_words, _stuffle_words, bernoulli,
                   compositions_ge2, couplings)
from .mzv import mzv
from .meisen import meis_qexp

__all__ = [
    "SymbolicCombination", "RelationMatrix", "antipode_relation", "relation_rows", "relation_rank",
    "conjectured_dim", "conjectured_rel", "relation_table",
    "mzv_relation_residual", "combination_residual",
]


def _exact(c) -> int | Fraction:
    """A coefficient as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class SymbolicCombination:
    """Weight-homogeneous rational combination of admissible indices.

    It is held as a dense int row over the column order of its weight and
    one positive common denominator, with no common factor between them.
    Its terms are ints where integral and Fractions otherwise; one built
    from a dict keeps those terms, any other makes them on first use."""

    __slots__ = ("_row", "_den", "_terms", "weight")

    def __init__(self, terms: dict | None = None):
        out: dict[Index, int | Fraction] = {}
        w = None
        for ix, c in (terms or {}).items():
            ix = Index(ix)
            c = _exact(c)
            if not c:
                continue
            if not ix.admissible:
                raise ValueError(f"non-admissible symbol {tuple(ix)}")
            if w is None:
                w = ix.weight
            elif ix.weight != w:
                raise ValueError("mixed weights in one combination")
            out[ix] = c
        den = lcm(*(c.denominator for c in out.values()))
        row = [int(out.get(ix, 0) * den) for ix in _columns(w)[0]] if out else []
        self._row, self._den, self._terms, self.weight = row, den, out, w

    @classmethod
    def _from_row(cls, row: list, den: int, weight: int) -> "SymbolicCombination":
        """The combination row / den over _columns(weight), den > 0."""
        if not any(row):
            return cls()
        if den != 1:
            g = gcd(den, *row)
            row, den = [v // g for v in row], den // g
        self = cls.__new__(cls)
        self._row, self._den, self._terms, self.weight = row, den, None, weight
        return self

    @property
    def terms(self) -> dict[Index, int | Fraction]:
        if self._terms is None:
            order, den = _columns(self.weight)[0], self._den
            self._terms = {order[col]: c if den == 1 else _exact(Fraction(c, den))
                           for col, c in enumerate(self._row) if c}
        return self._terms

    def __bool__(self) -> bool:
        return self.weight is not None

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self._row) - self._row.count(0)

    def __add__(self, other: "SymbolicCombination") -> "SymbolicCombination":
        if not other:
            return self
        if not self:
            return other
        if other.weight != self.weight:
            raise ValueError("mixed weights in one combination")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        row = [fa * a + fb * b for a, b in zip(self._row, other._row)]
        return SymbolicCombination._from_row(row, den, self.weight)

    def scale(self, c) -> "SymbolicCombination":
        c = Fraction(c)
        if not (c and self):
            return SymbolicCombination()
        return SymbolicCombination._from_row([c.numerator * v for v in self._row],
                                             self._den * c.denominator, self.weight)

    def stuffle_mul(self, u: Index) -> "SymbolicCombination":
        """Multiply by the symbol of index u (quasi-shuffle expansion)."""
        u = Index(u)
        if not self:
            return SymbolicCombination()
        if not u.admissible:
            raise ValueError(f"non-admissible symbol {tuple(u)}")
        weight = self.weight + u.weight
        row = [0] * len(_columns(weight)[0])
        for ix, c in zip(_columns(self.weight)[0], self._row):
            if c:
                for col, m in zip(*_stuffle_columns(u, ix)):
                    row[col] += c * m
        return SymbolicCombination._from_row(row, self._den, weight)

    def evaluate(self, tau: complex) -> complex:
        return sum(complex(c) * meis_qexp(ix, tau)
                   for ix, c in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({c})*Gt{tuple(ix)}" for ix, c in sorted(self.terms.items())]
        return " + ".join(bits)


@lru_cache(maxsize=None)
def antipode_relation(source) -> SymbolicCombination:
    """The weight-(k-1) relation attached to a source index of weight k:

    sum over i and n-vectors with n_i = 1 of
    (-1)^{k_i + n_i + ... + n_r} prod_{p != i} C(n_p - 1, k_p - 1)
        Gt_{n_{i-1},..,n_1} * Gt_{n_{i+1},..,n_r},

    with each two-symbol product expanded by the stuffle.  Evaluates to the
    zero function; depth-1 sources give the empty combination.
    """
    source = Index(source)
    if not source.admissible:
        raise ValueError("source parts must be >= 2")
    # every word has parts n_p >= k_p >= 2 and weight source.weight - 1; with
    # n_i = 1 the coefficient factorises into the sign (-1)^{k_i + 1 + |R|}
    # and the couplings of the reversed left word L = (n_{i-1}, .., n_1) and
    # of the right word R = (n_{i+1}, .., n_r)
    weight = source.weight - 1
    row = [0] * len(_columns(weight)[0])
    for i in range(source.depth):
        left, right = source[:i][::-1], source[i + 1:]
        for lw in range(sum(left), weight - sum(right) + 1):
            rw = weight - lw
            rights = _coupled_words(right, rw)
            sign = -1 if (source[i] + 1 + rw) % 2 else 1
            for a, ca in _coupled_words(left, lw):
                ca *= sign
                for b, cb in rights:
                    c = ca * cb
                    for col, m in zip(*_stuffle_columns(a, b)):
                        row[col] += c * m
    return SymbolicCombination._from_row(row, 1, weight)


def _mirror_sources(weight: int):
    """The sources k of the given weight with k <= k[::-1]: one of each mirror pair."""
    return (src for src in compositions_ge2(weight) if src <= src[::-1])


def _rows(weight: int) -> tuple[list, list]:
    """The products u * g of every admissible u with every generator g of
    weight weight - |u|, and the nonzero antipode relations of the mirror
    sources of the given weight."""
    products = [g.stuffle_mul(u) for uw in range(2, weight - 1) for u in compositions_ge2(uw)
                for g in _echelon(weight - uw)[1]]
    return products, [rel for rel in map(antipode_relation, _mirror_sources(weight + 1)) if rel]


@lru_cache(maxsize=None)
def _echelon(weight: int) -> tuple[int, tuple[SymbolicCombination, ...]]:
    """The exact rank of the relation span of the given weight, and its
    generators.  The echelon takes the products of _rows first, then the
    antipode relations, each in term-count order; the generators are the
    antipode relations that still raise the rank.  Products first leaves
    the fewest generators, and term-count order picks sparse ones, which
    keeps the products of the higher weights sparse."""
    products, antipodes = _rows(weight)
    mat = RelationMatrix(weight)
    for row in sorted(products, key=len):
        mat.add(row)
    generators = tuple(rel for rel in sorted(antipodes, key=len) if mat.add(rel))
    return mat.rank, generators


def relation_rows(weight: int):
    """Generate, in non-decreasing term count, the antipode relations of the
    given weight and the stuffle products u * g of all admissible single
    indices u with the generators g of weight weight - |u|.

    These rows span I_w, the weight-w part of the stuffle ideal generated by
    the antipode relations.  stuffle_mul(u) is linear, and the stuffle is
    commutative and associative, so I_w is spanned by the antipode
    relations of weight w and the products u * a with every antipode
    relation a of a lower weight w'.  If a is not a generator, the echelon
    of weight w' puts it in the span of that weight's products and
    generators, so u * a is a sum of terms u * (u' * g'') and c (u * g).
    u * u' is an integer sum of admissible words of weight |u| + |u'|, each
    a multiplier at weight w, so u * (u' * g'') = (u * u') * g'' is a sum of
    rows, and so is u * a: the rows span I_w, as do the products with a
    basis of every lower weight's antipode relations.

    Reversal maps the slot i to r+1-i and swaps the two commuting stuffle
    factors, and the boundary sign changes by (-1)^{|k|-1}:
    antipode_relation(k[::-1]) == (-1)^{|k|-1} antipode_relation(k), so only
    one source of each mirror pair is taken."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    products, antipodes = _rows(weight)
    yield from sorted(antipodes + products, key=len)


@lru_cache(maxsize=None)
def _columns(weight: int) -> tuple[tuple[Index, ...], dict[Index, int]]:
    """The column order of the exact elimination at the given weight, and
    the column of each admissible index in it: deepest words first, then
    lexicographic in the reversed word.  Every order gives the same rank;
    this one keeps the pivot rows sparse, and reduces the weight-16 rows
    about 4x faster than the lexicographic order."""
    order = tuple(sorted(compositions_ge2(weight), key=lambda ix: (-len(ix), ix[::-1])))
    return order, {ix: col for col, ix in enumerate(order)}


@lru_cache(maxsize=None)
def _stuffle_columns(a: tuple, b: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The stuffle product of two admissible words as its columns over
    _columns(|a| + |b|) and their multiplicities, in the sorted word order
    of stuffle(a, b)."""
    words, mults = zip(*_stuffle_words(a, b))
    return tuple(map(_columns(sum(a) + sum(b))[1].__getitem__, words)), mults


class RelationMatrix:
    """Incremental exact row echelon of the combinations of one weight: a
    combination's int row is reduced as it is, since its denominator does
    not change the rank, against pivot rows kept as (column, value) pairs
    from their lead column on, each with a positive lead and content 1.
    The rank is independent of row order and duplicates."""

    def __init__(self, weight: int):
        self.weight = weight
        self._pivots: list = [None] * len(_columns(weight)[0])
        self.rank = 0

    def _reduce(self, comb: SymbolicCombination) -> tuple[int, list]:
        """Reduce a copy of the combination's int row against the pivots, up
        to its first nonzero column p without a pivot; (p, row), with p the
        column count when the row reduces to 0."""
        pivots, n = self._pivots, len(self._pivots)
        if not comb:
            return n, []
        if comb.weight != self.weight:
            raise ValueError("row weight mismatch")
        row = list(comb._row)
        p = 0
        while True:
            while p < n and not row[p]:
                p += 1
            if p == n:
                return p, row
            piv = pivots[p]
            if piv is None:
                return p, row
            a, b = piv[0][1], row[p]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                row[p:] = [fa * v for v in row[p:]]
            # row <- fa * row - fb * piv; the entry at p cancels
            for c, v in piv:
                row[c] -= fb * v

    def add(self, comb: SymbolicCombination) -> bool:
        """Reduce one combination against the basis; True if it raised the rank."""
        p, row = self._reduce(comb)
        n = len(self._pivots)
        if p == n:
            return False
        g = 0
        for v in row[p:]:
            g = gcd(g, v)
        if row[p] < 0:
            g = -g
        self._pivots[p] = [(c, row[c] // g) for c in range(p, n) if row[c]]
        self.rank += 1
        return True

    def contains(self, comb: SymbolicCombination) -> bool:
        """True if the combination lies in the span of the rows added so
        far; nothing is inserted."""
        return self._reduce(comb)[0] == len(self._pivots)


def relation_rank(weight: int) -> int:
    """Exact rank of the antipode + stuffle-product relation span, read from
    the echelon that also gives the weight's generators: each weight is
    eliminated once."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    return _echelon(weight)[0]


# ---------------------------------------------------------------------------
# conjectured dimensions
# ---------------------------------------------------------------------------

_DIM_DEN = [1, 0, -1, -1, -1, -1, 0, 0, 1, 1, 1, 1, 1]  # 1 - X^2..X^5 + X^8..X^12


@lru_cache(maxsize=None)
def _dim_series(order: int) -> TruncatedSeries:
    den = TruncatedSeries([Fraction(c) for c in (_DIM_DEN + [0] * order)[:order + 1]], var="X")
    return den.inverse()


def conjectured_dim(weight: int) -> int:
    """Coefficient of X^weight in 1/(1 - X^2 - X^3 - X^4 - X^5 + X^8 + ... + X^12)."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    c = _dim_series(max(weight, 16))[weight]
    assert c.denominator == 1
    return int(c)


def conjectured_rel(weight: int) -> int:
    """Candidate count minus conjectured dimension."""
    return len(compositions_ge2(weight)) - conjectured_dim(weight)


def relation_table(max_weight: int = 12) -> list[dict]:
    rows = []
    for w in range(2, max_weight + 1):
        rel_conj, rel_anti = conjectured_rel(w), relation_rank(w)
        rows.append({"weight": w, "dim_conj": conjectured_dim(w), "rel_conj": rel_conj,
                     "rel_anti": rel_anti, "deficit": rel_conj - rel_anti})
    return rows


# ---------------------------------------------------------------------------
# numeric residuals of the analytic relations
# ---------------------------------------------------------------------------

def combination_residual(comb: SymbolicCombination, tau: complex) -> float:
    return abs(comb.evaluate(tau)) if comb else 0.0


def mzv_relation_residual(index) -> float:
    """|LHS - RHS| of the two-sided multiple-zeta identity

    sum_{i=0}^r (-1)^{k_{i+1}+..+k_r} zeta(k_i..k_1) zeta(k_{i+1}..k_r)
      = - sum_{i, n_i even} (-1)^{k_i+n_{i+1}+..+n_r} prod_{j != i} C(n_j-1, k_j-1)
          (2 pi i)^{n_i} B_{n_i} / n_i! zeta(n_{i-1}..n_1) zeta(n_{i+1}..n_r).
    """
    index = Index(index)
    if not index.admissible:
        raise ValueError("parts must be >= 2")
    r, k = index.depth, index.weight

    def zv(ix) -> float:
        return mzv(Index(ix)).real

    lhs = 0.0
    for i in range(0, r + 1):
        sgn = (-1) ** (sum(index[i:]) % 2)
        lhs += sgn * zv(index[:i][::-1]) * zv(index[i:])
    rhs = 0.0
    for i in range(r):
        for ns, c in couplings(index, k, i):
            n_i = ns[i]
            if n_i % 2 == 1:
                continue
            # (2 pi i)^{n_i} B_{n_i} / n_i!  is real for even n_i
            euler = (-1) ** (n_i // 2) * (2 * pi) ** n_i * float(bernoulli(n_i)) / factorial(n_i)
            rhs -= c * euler * zv(ns[:i][::-1]) * zv(ns[i + 1:])
    return abs(lhs - rhs)

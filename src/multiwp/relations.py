"""Formal relation engine over multiple-Eisenstein symbols.

A SymbolicCombination is an exact rational linear combination of admissible
indices (all parts >= 2) of one common weight, the carrier of linear
relations among multiple Eisenstein series.  The antipode relations come
from the vanishing derivative sum of the restricted-wp product factors;
their stuffle closure is spanned, by bilinearity and associativity, by
products with single indices, and exact integer row reduction gives the
rank of the relation space in each weight.  Every antipode coefficient is
an integer, so the rows are built and reduced in Python ints; a Fraction
appears only for a coefficient that is not integral.  A reversed source
gives the same relation up to sign, antipode_relation(k[::-1]) ==
(-1)^{|k|-1} antipode_relation(k), so one source of each mirror pair is used.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, pi

from .core import (Index, TruncatedSeries, bernoulli, compositions_ge2, couplings,
                   stuffle_expand)
from .mzv import mzv
from .meisen import meis_qexp
from .weier import eisenstein_G

__all__ = [
    "SymbolicCombination", "RelationMatrix", "antipode_relation", "relation_rows", "relation_rank",
    "conjectured_dim", "conjectured_rel", "relation_table",
    "mzv_relation_residual", "eisenstein_relation_residual", "combination_residual",
]


def _exact(c) -> int | Fraction:
    """A coefficient as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class SymbolicCombination:
    """Weight-homogeneous rational combination of admissible indices.

    Coefficients are ints where integral and Fractions otherwise."""

    __slots__ = ("terms", "weight")

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Index, int | Fraction] = {}
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
            self.terms[ix] = c
        self.weight = w

    @classmethod
    def _trusted(cls, terms: dict, weight: int) -> "SymbolicCombination":
        """Wrap nonzero exact coefficients on admissible Index keys of the
        given weight, such as stuffle products of admissible words, without
        validating them again."""
        self = cls.__new__(cls)
        self.terms = terms
        self.weight = weight if terms else None
        return self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "SymbolicCombination") -> "SymbolicCombination":
        out = dict(self.terms)
        for ix, c in other.terms.items():
            s = out.get(ix, 0) + c
            if s:
                out[ix] = s
            elif ix in out:
                del out[ix]
        return SymbolicCombination(out)

    def scale(self, c) -> "SymbolicCombination":
        c = Fraction(c)
        return SymbolicCombination({ix: c * v for ix, v in self.terms.items()})

    def stuffle_mul(self, u: Index) -> "SymbolicCombination":
        """Multiply by the symbol of index u (quasi-shuffle expansion)."""
        u = Index(u)
        if not self.terms:
            return SymbolicCombination()
        if not u.admissible:
            raise ValueError(f"non-admissible symbol {tuple(u)}")
        out = stuffle_expand((c, (u, ix)) for ix, c in self.terms.items())
        if not all(type(c) is int for c in self.terms.values()):
            out = {word: _exact(c) for word, c in out.items()}
        return SymbolicCombination._trusted(out, self.weight + u.weight)

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
    out = stuffle_expand((c, (ns[:i][::-1], ns[i + 1:]))
                         for i in range(source.depth)
                         for ns, c in couplings(source, source.weight, i, 1))
    # every word has parts n_p >= k_p >= 2 and weight source.weight - 1
    return SymbolicCombination._trusted(out, source.weight - 1)


def _mirror_sources(weight: int):
    """The sources k of the given weight with k <= k[::-1]: one of each mirror pair."""
    return (src for src in compositions_ge2(weight) if src <= src[::-1])


@lru_cache(maxsize=None)
def _antipode_basis(weight: int) -> tuple[SymbolicCombination, ...]:
    """The antipode relations of the given weight that raise the rank when
    inserted in source order: a Q-basis of their span."""
    ech = _IntEchelon(_elimination_columns(weight))
    rels = map(antipode_relation, _mirror_sources(weight + 1))
    return tuple(rel for rel in rels if rel and ech.insert(rel))


def relation_rows(weight: int):
    """Generate, in non-decreasing term count, the antipode relations of the
    given weight and the stuffle products of all admissible single indices u
    with a Q-basis of the lower-weight antipode relations.  stuffle_mul(u) is
    linear, so these products span the same space as the products with every
    antipode relation.  Reversal maps the slot i to r+1-i and swaps the two
    commuting stuffle factors, and the boundary sign changes by (-1)^{|k|-1}:
    antipode_relation(k[::-1]) == (-1)^{|k|-1} antipode_relation(k), so only
    one source of each mirror pair is taken."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    rows = [rel for rel in map(antipode_relation, _mirror_sources(weight + 1)) if rel]
    for uw in range(2, weight - 1):
        for u in compositions_ge2(uw):
            rows.extend(rel.stuffle_mul(u) for rel in _antipode_basis(weight - uw))
    yield from sorted(rows, key=lambda rel: len(rel.terms))


class _IntEchelon:
    """Incremental exact row echelon over the integers (gcd-normalized)."""

    def __init__(self, col_of: dict):
        self.col_of = col_of
        self.pivots: dict[int, dict[int, int]] = {}

    @staticmethod
    def _normalize(row: dict[int, int]) -> dict[int, int]:
        """Divide by the content; make the entry in the first column positive."""
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        lead = row[min(row)]
        if lead < 0:
            row = {c: -v for c, v in row.items()}
        return row

    def insert(self, comb: SymbolicCombination) -> bool:
        """Reduce a combination against the basis; True if it adds rank."""
        col_of = self.col_of
        if all(type(c) is int for c in comb.terms.values()):
            row = {col_of[ix]: c for ix, c in comb.terms.items()}
        else:
            den = 1
            for c in comb.terms.values():
                den = den * c.denominator // gcd(den, c.denominator)
            row = {col_of[ix]: int(c * den) for ix, c in comb.terms.items()}
        if not row:
            return False
        row = self._normalize(row)
        pivots = self.pivots
        while row:
            p = min(row)
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = self._normalize(row)
                return True
            a, b = piv[p], row[p]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                row = {c: fa * v for c, v in row.items()}
            # row <- fa * row - fb * piv, in place; the entry at p cancels
            for c, v in piv.items():
                v = row.get(c, 0) - fb * v
                if v:
                    row[c] = v
                else:
                    del row[c]
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _elimination_columns(weight: int) -> dict[Index, int]:
    """Column of each admissible index of the given weight in the exact
    elimination: deepest words first, then lexicographic in the reversed
    word.  Every order gives the same rank; this one keeps the pivot rows
    sparse, and reduces the weight-16 rows about 4x faster than the
    lexicographic order."""
    order = sorted(compositions_ge2(weight), key=lambda ix: (-len(ix), ix[::-1]))
    return {ix: i for i, ix in enumerate(order)}


class RelationMatrix:
    """Rows = weight-homogeneous combinations over the basis of admissible
    compositions; the rank comes from exact integer elimination and is
    independent of row order, column order and duplicates."""

    def __init__(self, weight: int):
        self.weight = weight
        self._ech = _IntEchelon(_elimination_columns(weight))

    def add(self, comb: SymbolicCombination) -> bool:
        """Insert one row; True if it raised the rank."""
        if comb and comb.weight != self.weight:
            raise ValueError("row weight mismatch")
        return self._ech.insert(comb) if comb else False

    @property
    def rank(self) -> int:
        return self._ech.rank


@lru_cache(maxsize=None)
def relation_rank(weight: int) -> int:
    """Exact rank of the antipode + stuffle-product relation span."""
    mat = RelationMatrix(weight)
    for row in relation_rows(weight):
        mat.add(row)
    return mat.rank


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


def relation_table(max_weight: int = 12, min_weight: int = 2) -> list[dict]:
    rows = []
    for w in range(min_weight, max_weight + 1):
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


def eisenstein_relation_residual(index, m: int, tau: complex) -> float:
    """|LHS - RHS| of the z^m Taylor-coefficient relation among multiple
    Eisenstein series (m > 0).

    The right side carries a factor (-1)^m (pinned by the depth-one case,
    where both sides are classical Eisenstein data), and the boundary sum
    runs over i = 1..r.
    """
    index = Index(index)
    if not index.admissible:
        raise ValueError("parts must be >= 2")
    if m <= 0:
        raise ValueError("m must be positive")
    r, k = index.depth, index.weight

    def gt(ix) -> complex:
        ix = Index(ix)
        return meis_qexp(ix, tau) if ix.depth else 1.0

    lhs = 0.0 + 0.0j
    for i in range(r):
        for ns, c in couplings(index, m + k, i):
            n_i = ns[i]
            if n_i % 2 == 1 or n_i < m + 1:
                continue  # odd Eisenstein values vanish, as does C(n_i - 1, m)
            lhs += comb(n_i - 1, m) * c * gt(ns[:i][::-1]) * gt(ns[i + 1:]) \
                * eisenstein_G(n_i, tau)
    rhs = 0.0 + 0.0j
    full = list(couplings(index, m + k))
    for i in range(0, r + 1):
        for ns, c in full:
            sgn = (-1) ** (sum(ns[i:]) % 2)
            rhs += sgn * c * gt(ns[:i][::-1]) * gt(ns[i:])
    for i in range(r):
        for ns, c in couplings(index, m + k, i, 0):
            rhs += c * gt(ns[:i][::-1]) * gt(ns[i + 1:])
    return abs(lhs - (-1) ** m * rhs)

from math import comb

import pytest
from fractions import Fraction

from multiwp.core import (Index, compositions_fixed, compositions_ge2, couplings, stuffle,
                          stuffle_expand)
from multiwp.relations import (RelationMatrix, SymbolicCombination, _columns, _echelon,
                               _stuffle_columns, antipode_relation, combination_residual,
                               conjectured_dim, conjectured_rel, mzv_relation_residual,
                               relation_rank, relation_rows, relation_table)

TABLE = {
    # weight: (dim, rel_conj, rel_anti)
    2: (1, 0, 0), 3: (1, 0, 0), 4: (2, 0, 0), 5: (3, 0, 0), 6: (4, 1, 1),
    7: (7, 1, 1), 8: (9, 4, 4), 9: (15, 6, 5), 10: (21, 13, 13),
    11: (32, 23, 19), 12: (47, 42, 40), 13: (70, 74, 62),
}


def test_symbolic_combination_validation():
    c = SymbolicCombination({Index((2, 3)): Fraction(1), Index((5,)): Fraction(-2)})
    assert c.weight == 5
    with pytest.raises(ValueError):
        SymbolicCombination({Index((2,)): 1, Index((3,)): 1})
    with pytest.raises(ValueError):
        SymbolicCombination({Index((1, 2)): 1})
    assert not SymbolicCombination({Index((4,)): 0})


def test_antipode_depth_one_source_is_trivial():
    for k in (2, 5, 9):
        assert not antipode_relation((k,))


def test_antipode_low_weight_sources_vanish():
    for w in range(4, 7):
        for src in compositions_ge2(w):
            assert not antipode_relation(src), src


def test_weight6_relation_frozen():
    # the first nontrivial relation: -3 Gt_{2,4} + 6 Gt_{3,3} - Gt_6 = 0
    rel = antipode_relation((2, 2, 3))
    assert rel.terms == {Index((2, 4)): Fraction(-3), Index((3, 3)): Fraction(6),
                         Index((6,)): Fraction(-1)}
    assert combination_residual(rel, 2j) < 1e-12


def test_conjectured_dims_and_rels():
    dims = [conjectured_dim(w) for w in range(2, 17)]
    assert dims == [1, 1, 2, 3, 4, 7, 9, 15, 21, 32, 47, 70, 104, 153, 228]
    rels = [conjectured_rel(w) for w in range(2, 17)]
    assert rels == [0, 0, 0, 0, 1, 1, 4, 6, 13, 23, 42, 74, 129, 224, 382]


@pytest.mark.parametrize("weight", sorted(TABLE))
def test_relation_rank_matches_table(weight):
    dim, rel_conj, rel_anti = TABLE[weight]
    assert conjectured_dim(weight) == dim
    assert conjectured_rel(weight) == rel_conj
    assert relation_rank(weight) == rel_anti
    assert rel_anti <= rel_conj  # deficit row is nonnegative


def test_rank_idempotent_and_order_invariant():
    w = 8
    rows = list(relation_rows(w))
    e1 = RelationMatrix(w)
    for r in rows + rows:  # duplicates change nothing
        e1.add(r)
    assert e1.rank == 4
    e2 = RelationMatrix(w)
    for r in rows[::-1]:
        e2.add(r)
    assert e2.rank == 4


def test_depth_two_multipliers_do_not_extend_span():
    # products with arbitrary elements stay inside the single-index span
    w = 9
    ech = RelationMatrix(w)
    for r in relation_rows(w):
        ech.add(r)
    base_rank = ech.rank
    assert base_rank == relation_rank(w)
    for u1, u2 in [((2,), (2,)), ((2,), (3,))]:
        uw = sum(u1) + sum(u2)
        for src in compositions_ge2(w - uw + 1):
            rel = antipode_relation(src)
            if not rel:
                continue
            prod = SymbolicCombination({})
            for word, m in stuffle(u1, u2).items():
                prod = prod + rel.stuffle_mul(word).scale(m)
            added = ech.add(prod)
            assert not added
    assert ech.rank == base_rank


def test_relation_table_shape():
    rows = relation_table(8)
    assert rows[0] == {"weight": 2, "dim_conj": 1, "rel_conj": 0,
                       "rel_anti": 0, "deficit": 0}
    assert rows[-1] == {"weight": 8, "dim_conj": 9, "rel_conj": 4,
                        "rel_anti": 4, "deficit": 0}


def test_antipode_relations_numeric():
    tau = 2j
    for w in (6, 7, 8):
        for src in compositions_ge2(w + 1):
            rel = antipode_relation(src)
            if rel:
                assert combination_residual(rel, tau) < 1e-5, src


def test_mzv_relation_examples():
    # depth 1, index (2): the identity reduces to Euler's 2 zeta(2) = pi^2/3
    assert mzv_relation_residual((2,)) < 1e-12
    assert mzv_relation_residual((2, 2)) < 1e-8
    assert mzv_relation_residual((2, 3)) < 1e-8


def _antipode_fraction_reference(source):
    """The antipode relation accumulated over Fractions, term by term."""
    source = Index(source)
    r = source.depth
    out = {}
    for i in range(1, r + 1):
        k_i = source[i - 1]
        others = [source[p] for p in range(r) if p != i - 1]
        for ms in compositions_fixed(k_i - 1, r - 1, 0):
            ns = [kp + mp for kp, mp in zip(others, ms)]
            ns.insert(i - 1, 1)
            c = 1
            for p in range(1, r + 1):
                if p != i:
                    c *= comb(ns[p - 1] - 1, source[p - 1] - 1)
            sgn = (-1) ** ((k_i + sum(ns[i - 1:])) % 2)
            for word, m in stuffle(Index(ns[:i - 1][::-1]), Index(ns[i:])).items():
                s = out.get(word, Fraction(0)) + sgn * c * m
                if s:
                    out[word] = s
                elif word in out:
                    del out[word]
    return out


def test_antipode_relation_matches_fraction_reference():
    for k in range(2, 12):
        for src in compositions_ge2(k):
            rel = antipode_relation(src)
            assert rel.terms == _antipode_fraction_reference(src), src
            assert all(type(c) is int for c in rel.terms.values()), src
            if rel:
                assert rel.weight == k - 1


def test_coefficients_int_unless_rational():
    rel = antipode_relation((2, 2, 3))
    half = rel.scale(Fraction(1, 2))
    assert half.terms == {Index((2, 4)): Fraction(-3, 2), Index((3, 3)): 3,
                          Index((6,)): Fraction(-1, 2)}
    assert type(half.terms[Index((3, 3))]) is int
    assert type(half.terms[Index((6,))]) is Fraction
    assert all(type(c) is int for c in half.scale(2).terms.values())
    assert all(type(c) is int for c in half.stuffle_mul((2,)).scale(4).terms.values())
    doubled = half.stuffle_mul((2,)).scale(2)
    assert doubled.terms == rel.stuffle_mul((2,)).terms
    assert all(type(c) is int for c in doubled.terms.values())
    with pytest.raises(ValueError):
        rel.stuffle_mul((1, 2))


@pytest.mark.parametrize("weight", range(2, 13))
def test_antipode_basis_spans_all_antipode_relations(weight):
    # the generators' contract: with the products u * g of the lower weights'
    # generators they span every antipode relation of the weight, and each
    # one raises the rank when inserted after the products
    rank, generators = _echelon(weight)
    ech = RelationMatrix(weight)
    for uw in range(2, weight - 1):
        for u in compositions_ge2(uw):
            for g in _echelon(weight - uw)[1]:
                ech.add(g.stuffle_mul(u))
    products_rank = ech.rank
    assert all(ech.add(g) for g in generators)
    assert ech.rank == products_rank + len(generators) == rank == TABLE[weight][2]
    for src in compositions_ge2(weight + 1):  # the skipped mirror sources too
        assert ech.contains(antipode_relation(src)), src
    assert ech.rank == rank
    antipode_rows = {tuple(antipode_relation(src)._row) for src in compositions_ge2(weight + 1)}
    assert all(tuple(g._row) in antipode_rows for g in generators)


def _antipode_basis_rows(weight):
    """The row set built from a basis of every lower weight's antipode
    relations: each mirror source's relation, and u * b for every admissible
    u and every b in a Q-basis of the antipode relations of weight w - |u|."""
    rows = [rel for src in compositions_ge2(weight + 1) if src <= src[::-1]
            for rel in [antipode_relation(src)] if rel]
    for uw in range(2, weight - 1):
        lower = RelationMatrix(weight - uw)
        basis = [rel for rel in map(antipode_relation, compositions_ge2(weight - uw + 1))
                 if lower.add(rel)]
        rows += [b.stuffle_mul(u) for u in compositions_ge2(uw) for b in basis]
    return rows


@pytest.mark.parametrize("weight", range(6, 14))
def test_generator_rows_span_the_antipode_basis_rows(weight):
    rows, basis_rows = list(relation_rows(weight)), _antipode_basis_rows(weight)
    assert len(rows) <= len(basis_rows)
    for mine, others in ((rows, basis_rows), (basis_rows, rows)):
        ech = RelationMatrix(weight)
        for row in mine:
            ech.add(row)
        assert ech.rank == TABLE[weight][2]
        assert all(ech.contains(row) for row in others)


def test_contains_inserts_nothing_and_excludes_the_numeric_weight9_relation():
    ech = RelationMatrix(9)
    for row in relation_rows(9):
        ech.add(row)
    assert ech.rank == TABLE[9][2] == 5
    # the weight-9 relation found numerically: true, and outside the span
    numeric = SymbolicCombination({(2, 2, 5): 30, (2, 3, 4): 15, (2, 7): -15, (3, 2, 4): 90,
                                   (3, 6): 115, (4, 5): 12, (9,): -3})
    assert combination_residual(numeric, 0.3 + 1.1j) < 1e-12
    reversed_ = SymbolicCombination({ix[::-1]: c for ix, c in numeric.terms.items()})
    assert combination_residual(reversed_, 0.3 + 1.1j) > 0.1
    assert not ech.contains(numeric)
    assert ech.rank == 5
    for src in compositions_ge2(10):  # the skipped mirror sources too
        assert ech.contains(antipode_relation(src)), src
    assert ech.contains(SymbolicCombination())
    assert ech.rank == 5
    assert ech.add(numeric) and ech.rank == 6 == TABLE[9][1]
    assert ech.contains(numeric) and ech.contains(numeric.scale(Fraction(-2, 7)))
    with pytest.raises(ValueError, match="weight mismatch"):
        ech.contains(antipode_relation((2, 2, 3)))


@pytest.mark.parametrize("weight", range(8, 13))
def test_basis_products_span_every_antipode_product(weight):
    ech = RelationMatrix(weight)
    for row in relation_rows(weight):
        ech.add(row)
    assert ech.rank == TABLE[weight][2]
    for uw in range(2, weight - 1):
        for u in compositions_ge2(uw):
            for src in compositions_ge2(weight - uw + 1):
                rel = antipode_relation(src)
                if rel:
                    assert not ech.add(rel.stuffle_mul(u)), (u, src)
    assert ech.rank == TABLE[weight][2]


def test_scalar_multiples_do_not_raise_rank():
    rel = antipode_relation((2, 2, 3))
    mat = RelationMatrix(6)
    assert mat.add(rel)
    assert not mat.add(rel.scale(-3))
    assert not mat.add(rel.scale(Fraction(1, 2)))
    assert not mat.add(rel)
    assert mat.rank == 1
    # same support, not a multiple
    other = rel + SymbolicCombination({Index((6,)): -1})
    assert set(other.terms) == set(rel.terms)
    assert mat.add(other)
    assert not mat.add(other.scale(Fraction(-2, 7)))
    assert mat.rank == 2


def test_one_combination_built_four_ways():
    # (rel * (2)) / 2 for the weight-6 relation: ints and halves
    rel = antipode_relation((2, 2, 3))
    want = stuffle_expand((Fraction(c, 2), ((2,), ix)) for ix, c in rel.terms.items())
    by_dict = SymbolicCombination(want)
    by_scale = rel.stuffle_mul((2,)).scale(Fraction(1, 2))
    by_add = SymbolicCombination()
    for ix, c in want.items():
        by_add = by_add + SymbolicCombination({ix: c})
    by_stuffle = SymbolicCombination({ix: Fraction(c, 2) for ix, c in rel.terms.items()}
                                     ).stuffle_mul((2,))
    ways = [by_dict, by_scale, by_add, by_stuffle]
    types = {ix: int if c.denominator == 1 else Fraction for ix, c in want.items()}
    assert set(types.values()) == {int, Fraction}
    mat, full = RelationMatrix(8), RelationMatrix(8)
    for row in relation_rows(8):
        full.add(row)
    for i, combo in enumerate(ways):
        assert combo.weight == 8 and len(combo) == len(want)
        assert combo.terms == want
        assert {ix: type(c) for ix, c in combo.terms.items()} == types
        assert mat.add(combo) == (i == 0)
        assert not full.add(combo)
    assert mat.rank == 1
    assert full.rank == TABLE[8][2]


@pytest.mark.parametrize("weight", range(3, 15))
def test_reversed_source_gives_signed_relation(weight):
    sign = (-1) ** (weight - 1)
    for src in compositions_ge2(weight):
        rel = antipode_relation(src).terms
        assert antipode_relation(src[::-1]).terms == {w: sign * c for w, c in rel.items()}, src


def test_even_weight_palindrome_gives_empty_relation():
    palindromes = [src for weight in range(4, 15, 2) for src in compositions_ge2(weight)
                   if src == src[::-1]]
    assert (2, 3, 3, 2) in palindromes and len(palindromes) > 20
    for src in palindromes:
        assert not antipode_relation(src), src


@pytest.mark.parametrize("weight", range(2, 13))
def test_relation_rows_span_every_antipode_relation(weight):
    rows = list(relation_rows(weight))
    counts = [len(row.terms) for row in rows]
    assert counts == sorted(counts)
    ech = RelationMatrix(weight)
    for row in rows:
        ech.add(row)
    assert ech.rank == TABLE[weight][2]
    for src in compositions_ge2(weight + 1):  # the skipped mirror sources too
        assert not ech.add(antipode_relation(src)), src
    assert ech.rank == TABLE[weight][2]


def _two_word_expansion(source):
    """The antipode relation of a source, summed pair by pair from couplings
    and stuffle."""
    out = {}
    for i in range(len(source)):
        for ns, c in couplings(source, sum(source), i, 1):
            for word, m in stuffle(ns[:i][::-1], ns[i + 1:]).items():
                out[word] = out.get(word, 0) + c * m
    return {word: c for word, c in out.items() if c}


def test_antipode_rows_match_two_word_expansion():
    for k in range(2, 15):
        for src in compositions_ge2(k):
            assert antipode_relation(src).terms == _two_word_expansion(src), src


def test_stuffle_mul_matches_stuffle_expand():
    us = [u for uw in range(2, 5) for u in compositions_ge2(uw)]
    for weight in range(2, 11):
        for rel in filter(None, map(antipode_relation, compositions_ge2(weight + 1))):
            for u in us:
                want = stuffle_expand((c, (u, ix)) for ix, c in rel.terms.items())
                assert rel.stuffle_mul(u).terms == want, (rel, u)


def test_stuffle_words_come_sorted_and_match_their_columns():
    # float sums over stuffle(a, b) (the harmonic-product checks, verify,
    # the MZV tests) add in this order
    words = [()] + [ix for w in range(2, 13) for ix in compositions_ge2(w)]
    for a in words:
        for b in words:
            if sum(a) + sum(b) <= 12:
                got = list(stuffle(a, b))
                assert got == sorted(got), (a, b)
    # every word pair the rows of weight <= 12 use: the antipode pairs and
    # the stuffle_mul pairs (u, ix) with ix of any lower weight
    pairs = set()
    for weight in range(2, 13):
        for src in compositions_ge2(weight + 1):
            for i in range(len(src)):
                pairs.update((ns[:i][::-1], ns[i + 1:])
                             for ns, _ in couplings(src, weight + 1, i, 1))
        for uw in range(2, weight - 1):
            pairs.update((u, ix) for u in compositions_ge2(uw)
                         for ix in compositions_ge2(weight - uw))
    assert len(pairs) > 900
    for a, b in pairs:
        col_of = _columns(sum(a) + sum(b))[1]
        prod = stuffle(a, b)
        assert _stuffle_columns(a, b) == (tuple(col_of[w] for w in prod),
                                          tuple(prod.values())), (a, b)


def _fraction_rank(rows) -> int:
    """Rank of dict rows by Gauss-Jordan elimination over Fractions."""
    basis = {}  # pivot key -> row with 1 there and 0 at every other pivot key
    for terms in rows:
        row = {ix: Fraction(c) for ix, c in terms.items()}
        for key, piv in basis.items():
            f = row.get(key, 0)
            if f:
                for ix, v in piv.items():
                    row[ix] = row.get(ix, 0) - f * v
        row = {ix: v for ix, v in row.items() if v}
        if not row:
            continue
        key = min(row)
        row = {ix: v / row[key] for ix, v in row.items()}
        for other in basis.values():
            f = other.get(key, 0)
            if f:
                for ix, v in row.items():
                    other[ix] = other.get(ix, 0) - f * v
        basis[key] = row
    return len(basis)


@pytest.mark.parametrize("weight", range(2, 12))
def test_rank_matches_fraction_gauss_jordan(weight):
    rows = list(relation_rows(weight))
    # one row with non-integral coefficients, independent of the others
    extra = SymbolicCombination({Index((weight,)): Fraction(1, 3)})
    if rows:
        extra = extra + rows[-1].scale(Fraction(1, 2))
    mat = RelationMatrix(weight)
    for row in rows + [extra]:
        mat.add(row)
    assert mat.rank == _fraction_rank(row.terms for row in rows + [extra])
    assert mat.rank == TABLE[weight][2] + 1

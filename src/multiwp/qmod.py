"""Exact symbolic algebra for quasi-modular coefficients.

QuasiModular is a polynomial with Fraction coefficients in the symbols
G_2, G_4, G_6, G_8, ... (the Eisenstein values of this normalization,
G_k = sum' w^-k).  Monomials are stored as sorted tuples of the generator
weights, so G_4^2 G_6 is (4, 4, 6).

``normalize()`` rewrites every generator of weight >= 8 as the canonical
polynomial in G_4, G_6 coming from the differential equation of wp
(G_8 = 3/7 G_4^2, G_10 = 5/11 G_4 G_6, ...); G_2 is quasi-modular and
always stays a generator.

WpPolynomial represents elements of wp' * R[wp] + R[wp] with QuasiModular
coefficients, closed under multiplication and d/dz via

    (wp')^2 = 4 wp^3 - 60 G_4 wp - 140 G_6,
    wp''    = 6 wp^2 - 30 G_4.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable


class QuasiModular:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.terms = {}
        if terms:
            for mon, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(sorted(mon))] = c

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c) -> "QuasiModular":
        return QuasiModular({(): Fraction(c)})

    @staticmethod
    def gen(k: int) -> "QuasiModular":
        """The symbol G_k; zero for odd k >= 3."""
        if k < 2:
            raise ValueError("G_k needs k >= 2")
        if k % 2 == 1:
            return QuasiModular()
        return QuasiModular({(k,): Fraction(1)})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            s = out.get(mon, Fraction(0)) + c
            if s:
                out[mon] = s
            elif mon in out:
                del out[mon]
        return QuasiModular(out)

    __radd__ = __add__

    def __neg__(self):
        return QuasiModular({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(sorted(m1 + m2))
                s = out.get(mon, Fraction(0)) + c1 * c2
                if s:
                    out[mon] = s
                elif mon in out:
                    del out[mon]
        return QuasiModular(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuasiModular({m: c / Fraction(other) for m, c in self.terms.items()})
        raise TypeError("can only divide by exact scalars")

    def __pow__(self, n: int):
        out = QuasiModular.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ------------------------------------------------------
    def weight(self) -> int | None:
        """Common modular weight of all monomials, or None if inhomogeneous."""
        ws = {sum(mon) for mon in self.terms}
        if not ws:
            return 0
        return ws.pop() if len(ws) == 1 else None

    def normalize(self) -> "QuasiModular":
        """Rewrite all generators of weight >= 8 in terms of G_4 and G_6."""
        out = QuasiModular()
        for mon, c in self.terms.items():
            term = QuasiModular.const(c)
            for k in mon:
                term = term * _g_normal(k)
            out = out + term
        return out

    def evaluate(self, g_value: Callable[[int], complex]) -> complex:
        """Numeric value given an evaluator for the generators."""
        total = 0j
        for mon, c in self.terms.items():
            v = complex(c)
            for k in mon:
                v *= g_value(k)
            total += v
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mon, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            name = "*".join(f"G{k}" for k in mon) or "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)


def _coerce(x) -> QuasiModular:
    if isinstance(x, QuasiModular):
        return x
    if isinstance(x, (int, Fraction)):
        return QuasiModular.const(x)
    raise TypeError(f"cannot coerce {type(x)} to QuasiModular")


@lru_cache(maxsize=None)
def _a_sym(N: int) -> QuasiModular:
    # a_N = (2N+1) G_{2N+2} as a polynomial in G_4, G_6
    if N == 1:
        return 3 * QuasiModular.gen(4)
    if N == 2:
        return 5 * QuasiModular.gen(6)
    acc = QuasiModular()
    for n in range(1, N - 1):
        acc = acc + _a_sym(n) * _a_sym(N - 1 - n)
    return acc * Fraction(3, (2 * N + 3) * (N - 2))


@lru_cache(maxsize=None)
def _g_normal(k: int) -> QuasiModular:
    if k in (2, 4, 6):
        return QuasiModular.gen(k)
    if k % 2 == 1:
        return QuasiModular()
    return _a_sym(k // 2 - 1) / (k - 1)


# ---------------------------------------------------------------------------
# polynomials in wp and wp'
# ---------------------------------------------------------------------------

_WPP_SQ = {  # (wp')^2
    (3, 0): QuasiModular.const(4),
    (1, 0): -60 * QuasiModular.gen(4),
    (0, 0): -140 * QuasiModular.gen(6),
}


class WpPolynomial:
    """Element of R[wp] + wp' R[wp], R = quasi-modular forms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], QuasiModular] | None = None):
        self.coeffs = {}
        if coeffs:
            for (s, t), c in coeffs.items():
                if t not in (0, 1):
                    raise ValueError("wp' exponent must be 0 or 1")
                c = _coerce(c)
                if c:
                    self.coeffs[(s, t)] = c

    @staticmethod
    def wp(s: int = 1) -> "WpPolynomial":
        return WpPolynomial({(s, 0): QuasiModular.const(1)})

    @staticmethod
    def wp_prime() -> "WpPolynomial":
        return WpPolynomial({(0, 1): QuasiModular.const(1)})

    @staticmethod
    def const(c) -> "WpPolynomial":
        return WpPolynomial({(0, 0): _coerce(c)})

    def __add__(self, other):
        other = _coerce_wp(other)
        out = dict(self.coeffs)
        for st, c in other.coeffs.items():
            s = out.get(st, QuasiModular()) + c
            if s:
                out[st] = s
            elif st in out:
                del out[st]
        return WpPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return WpPolynomial({st: -c for st, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce_wp(other))

    def __rsub__(self, other):
        return _coerce_wp(other) + (-self)

    def __mul__(self, other):
        other = _coerce_wp(other)
        out: dict[tuple[int, int], QuasiModular] = {}

        def put(s, t, c):
            if t <= 1:
                cur = out.get((s, t), QuasiModular()) + c
                if cur:
                    out[(s, t)] = cur
                elif (s, t) in out:
                    del out[(s, t)]
            else:  # t == 2: reduce via (wp')^2
                for (ds, dt), dc in _WPP_SQ.items():
                    put(s + ds, dt, c * dc)

        for (s1, t1), c1 in self.coeffs.items():
            for (s2, t2), c2 in other.coeffs.items():
                put(s1 + s2, t1 + t2, c1 * c2)
        return WpPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return WpPolynomial({st: c / other for st, c in self.coeffs.items()})

    def __pow__(self, n: int):
        out = WpPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def dz(self) -> "WpPolynomial":
        """Derivative in z."""
        out = WpPolynomial()
        for (s, t), c in self.coeffs.items():
            if t == 0:
                if s:
                    out = out + WpPolynomial({(s - 1, 1): c * s})
            else:
                # d/dz [wp^s wp'] = s wp^{s-1} (wp')^2 + wp^s wp''
                if s:
                    for (ds, dt), dc in _WPP_SQ.items():
                        out = out + WpPolynomial({(s - 1 + ds, dt): c * s * dc})
                out = out + WpPolynomial({(s + 2, 0): c * 6, (s, 0): c * (-30) * QuasiModular.gen(4)})
        return out

    def normalize(self) -> "WpPolynomial":
        return WpPolynomial({st: c.normalize() for st, c in self.coeffs.items()})

    def weight(self) -> int | None:
        """Common weight with wp ~ 2 and wp' ~ 3, or None if inhomogeneous."""
        ws = set()
        for (s, t), c in self.coeffs.items():
            w = c.weight()
            if w is None:
                return None
            ws.add(w + 2 * s + 3 * t)
        if not ws:
            return 0
        return ws.pop() if len(ws) == 1 else None

    def evaluate(self, wp_val: complex, wpp_val: complex,
                 g_value: Callable[[int], complex]) -> complex:
        total = 0j
        for (s, t), c in self.coeffs.items():
            total += c.evaluate(g_value) * wp_val**s * (wpp_val if t else 1.0)
        return total

    def __eq__(self, other) -> bool:
        other = _coerce_wp(other)
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (s, t), c in sorted(self.coeffs.items(), reverse=True):
            head = ("wp^%d" % s if s > 1 else "wp" if s == 1 else "")
            head += ("*wp'" if t else "")
            bits.append(f"[{c!r}]{head or '1'}")
        return " + ".join(bits)


def _coerce_wp(x) -> WpPolynomial:
    if isinstance(x, WpPolynomial):
        return x
    if isinstance(x, (int, Fraction, QuasiModular)):
        return WpPolynomial.const(x)
    raise TypeError(f"cannot coerce {type(x)} to WpPolynomial")

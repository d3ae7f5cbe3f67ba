"""Hot numeric kernels: ordered nested lattice sums and compensated cumsums.

One vectorized numpy kernel sweeps the lattice backward once and returns the
ordered sums of all r suffixes of its (shifts, exponents) chain, so callers
that need every prefix and suffix factor of a chain need one sweep per
orientation.

Summation region and order
--------------------------
Lattice points w = m*tau + n with |m| < M, |n| < N are laid out in the
total (Eisenstein) order: sort by m, then by n.  An ordered nested sum of
depth r is

    sum_{start <= j_1 < j_2 < ... < j_r}  prod_s 1/(z_s - w_{j_s})^{k_s},

evaluated with one backward sweep, which passes through the sum over every
suffix of slots on its way to slot 0.  When the trailing exponent is 2 the
plain sum converges too slowly in N (the inner rows lose O(1/N) each), so
the identity

    1/V^2 = 1/((V-1) V) - 1/((V-1) V^2),        V = z_r - w,

is applied: the first piece telescopes row-by-row and its inner N-limit is
exact (zero on full rows, a single boundary term on the partial row), while
the second piece converges absolutely like |w|^-3.

Arithmetic of one sweep
-----------------------
The only divisions are one reciprocal 1/(z - w) per distinct shift z of the
call (every slot of a ``multiwp_direct`` sweep has the same shift) and, under
the split, one 1/(V_r - 1).  Each power 1/(z - w)^k is built from the
reciprocal by k - 1 products, as the left fold ((inv*inv)*inv)..., and shared
by all slots with that shift and exponent.  The 1/(V_r - 1) array serves both
the split term -1/((V_r - 1) V_r^2) = inv_r^2 * (-1/(V_r - 1)) and the row
remainder -1/(V_r - 1) added after slot r-2.  Each slot multiplies its powers
against the previous suffix sums shifted by one point into one reused
buffer.  The tables live only for the call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# lattice layout
# ---------------------------------------------------------------------------

@lru_cache(maxsize=9)
def lattice_sorted(tau: complex, M: int, N: int) -> tuple[np.ndarray, int]:
    """All w = m*tau + n, |m| < M, |n| < N, sorted by (m, n); returns
    (points, index_of_zero).  The 9 most recently used (tau, M, N) are
    cached (a hit returns the same array)."""
    m = np.arange(-M + 1, M, dtype=np.float64)
    n = np.arange(-N + 1, N, dtype=np.float64)
    w = (m[:, None] * complex(tau) + n[None, :]).ravel()
    pos0 = (M - 1) * (2 * N - 1) + (N - 1)
    return w, pos0


# ---------------------------------------------------------------------------
# ordered nested sum
# ---------------------------------------------------------------------------

def _power_tables(wr: np.ndarray, exps_by_shift: dict) -> dict:
    """{(x, k): (x - wr)**-k} for every shift x and each of its exponents k.

    One reciprocal per shift; each power is the left fold
    ((inv*inv)*inv)..., so a table does not depend on which other exponents
    were asked for.  A power nobody asked for (the reciprocal itself, once
    the fold no longer needs it) is overwritten in place by the next one."""
    tables = {}
    for x, ks in exps_by_shift.items():
        inv = np.subtract(x, wr)
        np.reciprocal(inv, out=inv)
        if 1 in ks:
            tables[x, 1] = inv
        p, top = inv, max(ks)
        for k in range(2, top + 1):
            keep = k - 1 in ks or (p is inv and k < top)
            p = p * inv if keep else np.multiply(p, inv, out=p)
            if k in ks:
                tables[x, k] = p
    return tables


def ordered_sum(w, shifts, exps, split_last=False, boundary_prev=None) -> list[complex]:
    """Every suffix of the ordered nested sum over the (pre-sliced, non-empty)
    region array ``w``, from one backward sweep.

    ``out[s]`` is the ordered sum over slots s..r-1 alone, so ``out[0]`` is
    the full depth-r sum and ``out[s]`` equals
    ``ordered_sum(w, shifts[s:], exps[s:], ...)[0]`` exactly.

    boundary_prev: for a split sum, the lattice point immediately preceding
    the region start; the last slot's depth-1 suffix ``out[r-1]`` gets the
    single surviving telescoped boundary term -1/(z - boundary_prev - 1) of
    its row.
    """
    w = np.asarray(w, dtype=np.complex128)
    L = len(w)
    if L == 0:
        raise ValueError("ordered_sum needs a non-empty summation region")
    shifts = [complex(x) for x in shifts]
    exps = [int(k) for k in exps]
    r = len(exps)
    split_last = bool(split_last and exps[-1] == 2)
    zr = shifts[-1]
    # The sweep runs over the reversed region, so that each suffix sum is a
    # forward cumsum over contiguous memory: pre[i] is the suffix sum from
    # region point L-1-i on.
    wr = w[::-1]
    exps_by_shift: dict = {}
    for x, k in zip(shifts, exps):
        exps_by_shift.setdefault(x, set()).add(k)
    if split_last:
        exps_by_shift[zr].add(2)
        # -1/(V_r - 1): a factor of the split term and the telescoped row
        # remainder added after slot r-2
        rem = np.subtract(wr, zr - 1.0)
        np.reciprocal(rem, out=rem)
    tables = _power_tables(wr, exps_by_shift)
    pre = np.empty(L, dtype=np.complex128)
    buf = np.empty(L, dtype=np.complex128) if r > 1 else None
    out = [0j] * r
    for s in range(r - 1, -1, -1):
        vals = tables[shifts[s], exps[s]]
        if s == r - 1:
            acc = np.multiply(vals, rem, out=pre) if split_last else vals
        else:
            # slot s pairs each point with the suffix strictly after it
            if split_last and s == r - 2:
                np.add(pre[:-1], rem[1:], out=buf[1:])
                buf[0] = rem[0]
                np.multiply(buf, vals, out=buf)
            else:
                np.multiply(vals[1:], pre[:-1], out=buf[1:])
                buf[0] = 0.0
            acc = buf
        np.cumsum(acc, out=pre)
        out[s] = complex(pre[-1])
    if split_last and boundary_prev is not None:
        out[r - 1] += -1.0 / (zr - complex(boundary_prev) - 1.0)
    return out


# ---------------------------------------------------------------------------
# compensated cumulative sums (for slowly converging MZV partial sums)
# ---------------------------------------------------------------------------

def kahan_cumsum(y: np.ndarray) -> np.ndarray:
    """Running sums of a float64 or complex128 array with O(eps) error per
    element: the cumsum runs in extended precision (per component for
    complex input) and rounds back to the input precision."""
    y = np.asarray(y)
    if np.iscomplexobj(y):
        return np.cumsum(y.astype(np.clongdouble)).astype(np.complex128)
    return np.cumsum(y.astype(np.longdouble)).astype(np.float64)

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
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# lattice layout
# ---------------------------------------------------------------------------

_LATTICE_CACHE: dict = {}


def lattice_sorted(tau: complex, M: int, N: int) -> tuple[np.ndarray, int]:
    """All w = m*tau + n, |m| < M, |n| < N, sorted by (m, n); returns
    (points, index_of_zero).  Cached per (tau, M, N)."""
    key = (complex(tau), M, N)
    hit = _LATTICE_CACHE.get(key)
    if hit is not None:
        return hit
    m = np.arange(-M + 1, M, dtype=np.float64)
    n = np.arange(-N + 1, N, dtype=np.float64)
    w = (m[:, None] * complex(tau) + n[None, :]).ravel()
    pos0 = (M - 1) * (2 * N - 1) + (N - 1)
    if len(_LATTICE_CACHE) > 8:
        _LATTICE_CACHE.clear()
    _LATTICE_CACHE[key] = (w, pos0)
    return w, pos0


# ---------------------------------------------------------------------------
# ordered nested sum
# ---------------------------------------------------------------------------

def ordered_sum(w, shifts, exps, split_last=False, boundary_prev=None) -> list[complex]:
    """Every suffix of the ordered nested sum over the (pre-sliced) region
    array ``w``, from one backward sweep.

    ``out[s]`` is the ordered sum over slots s..r-1 alone, so ``out[0]`` is
    the full depth-r sum and ``out[s]`` equals
    ``ordered_sum(w, shifts[s:], exps[s:], ...)[0]`` exactly.

    boundary_prev: for a split sum, the lattice point immediately preceding
    the region start; the last slot's depth-1 suffix ``out[r-1]`` gets the
    single surviving telescoped boundary term -1/(z - boundary_prev - 1) of
    its row.
    """
    w = np.asarray(w, dtype=np.complex128)
    shifts = np.asarray(shifts, dtype=np.complex128)
    exps = np.asarray(exps, dtype=np.int64)
    r = len(exps)
    L = len(w)
    split_last = bool(split_last and exps[-1] == 2)
    zr = shifts[r - 1]
    out = [0j] * r
    suffix = None
    for s in range(r - 1, -1, -1):
        v = shifts[s] - w
        if s == r - 1 and split_last:
            vals = -1.0 / ((v - 1.0) * v * v)
        else:
            vals = v ** float(-exps[s])
        if s == r - 1:
            acc = vals
        else:
            nxt = np.empty(L, dtype=np.complex128)
            nxt[:-1] = suffix[1:]
            nxt[-1] = 0.0
            if split_last and s == r - 2:
                nxt = nxt + (-1.0 / (zr - w - 1.0))
            acc = vals * nxt
        suffix = np.cumsum(acc[::-1])[::-1]
        out[s] = complex(suffix[0])
    if split_last and boundary_prev is not None:
        out[r - 1] += -1.0 / (complex(zr) - complex(boundary_prev) - 1.0)
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

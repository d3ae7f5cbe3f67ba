"""Hot numeric kernels: ordered nested lattice sums and compensated cumsums.

One vectorized numpy kernel sweeps the lattice backward once and returns the
ordered sums of all r suffixes of its (shifts, exponents) chain, so callers
that need every prefix and suffix factor of a chain need one sweep per
orientation.  The same sweep serves nested sub-regions at once (the N, 2N
and 4N truncations of a Richardson step), and independent sweeps run
concurrently through ``ordered_sums``.

Summation region and order
--------------------------
Lattice points w = m*tau + n with |m| < M, |n| < N are laid out in the
total (Eisenstein) order: sort by m, then by n (`lattice_sorted`).  A region
is either an array of points or a `LatticeRegion`, the points of that layout
from one position on, which the sweep makes itself block by block: each row
segment is the row's m*tau plus a slice of one descending range of n,
written into a work buffer of the block, so no array of the region's size
exists and nothing is cached between calls.  The caller picks M: the
sweeps over w > 0 behind the split and the restricted sums take the rows
that tau and their shifts ask for (`meisen.tilde_rows`: a row whose
multitangent factors are below 1e-20 adds only its N-truncation residue),
at most ``EvalConfig.M``, and only the plain `multiwp_raw` sweeps all M
rows.  An ordered nested sum of depth r is

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
The sweep runs over the reversed region, so that each suffix sum is a
forward cumsum, in blocks of ``_BLOCK`` points.  Each block computes its own
tables into work buffers of one block each, allocated once per call (a
lattice region's block is made in the spare buffer of the power folds and
read for every x - w before they overwrite it): one reciprocal 1/(z - w)
per distinct shift z of the call (every slot of a ``multiwp_direct`` sweep
has the same shift), each power 1/(z - w)^k from it by k - 1 products as
the left fold ((inv*inv)*inv)..., shared by all slots with that shift and
exponent, and under the split one 1/(V_r - 1), which
serves both the split term -1/((V_r - 1) V_r^2) = inv_r^2 * (-1/(V_r - 1))
and the row remainder -1/(V_r - 1) added after slot r-2.  Then each
sub-region (``levels``; by default the one region) runs slots r-1 ... 0 over
its own points of the block, one stretch of consecutive positions at a time:
each slot multiplies its powers against the previous slot's suffix sums
shifted by one point of that sub-region, and takes its running sum.  A
smaller truncation of the same lattice is a set of such stretches, one per
row (`positive_runs`), so the tables of the largest serve all of them.

Between stretches each sub-region carries, per slot, its last suffix sum.
The work arrays hold one point more than a block, in front: there the
running sum of slot s starts from its carry, and slot s-1's shifted product
takes slot s's carry as its first factor, in the same vectorized multiply as
the rest.  One pair of work arrays serves the sub-regions in turn, since
only the carries outlive a stretch.  No product is written over one of its
factors (numpy rounds such a product differently when it has one element).
So every product and every addition is the one a single cumsum over the
whole sub-region would make, in the same order: the result does not depend
on the block size, each sub-region's ``out`` is ``==`` the call on that
sub-region alone, and ``out[s]`` is ``==`` the call on that suffix alone.
The sweep allocates no memory of the region's size (a lattice region has
none at all), and no array outlives the call.  A call without ``levels`` runs in blocks of
``_BLOCK // 2`` points; a lattice region's blocks hold whole rows, as many
as fit, so that a block's points take one numpy call and a smaller
truncation's run of a row falls in one block.

Concurrent sweeps
-----------------
numpy releases the GIL inside its loops, so independent sweeps overlap on
threads.  ``ordered_sums`` runs several ``ordered_sum`` calls on one
module-wide thread pool with one worker per usable CPU; a split evaluation
of ``multip`` submits two, one per chain orientation.  The pool is made on
first use (``concurrent.futures`` is imported then, not at import time) and
lives for the rest of the process; a forked child drops the parent's pool,
whose threads it does not inherit, and makes its own when it needs one.
Each call's result is the same as a call made alone.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# lattice layout
# ---------------------------------------------------------------------------

def lattice_sorted(tau: complex, M: int, N: int) -> tuple[np.ndarray, int]:
    """All w = m*tau + n, |m| < M, |n| < N, sorted by (m, n); returns
    (points, index_of_zero).  The reference layout of `LatticeRegion`."""
    m = np.arange(-M + 1, M, dtype=np.float64)
    n = np.arange(-N + 1, N, dtype=np.float64)
    w = (m[:, None] * complex(tau) + n[None, :]).ravel()
    pos0 = (M - 1) * (2 * N - 1) + (N - 1)
    return w, pos0


@dataclass(frozen=True)
class LatticeRegion:
    """The points of ``lattice_sorted(tau, M, N)[0]`` from position ``start``
    on, as a value: `ordered_sum` makes them block by block and no array of
    the region's size exists.  Never mutated, so sweeps on several threads
    may share one."""

    tau: complex
    M: int
    N: int
    start: int = 0

    def __post_init__(self):
        if not (self.M >= 1 and self.N >= 1
                and 0 <= self.start <= (2 * self.M - 1) * (2 * self.N - 1)):
            raise ValueError(f"no lattice region at M={self.M}, N={self.N}, "
                             f"start={self.start}")

    @classmethod
    def above_zero(cls, tau: complex, M: int, N: int) -> LatticeRegion:
        """The points w > 0: those after w = 0 in the (m, n) order."""
        return cls(tau, M, N, (M - 1) * (2 * N - 1) + N)

    def __len__(self) -> int:
        return (2 * self.M - 1) * (2 * self.N - 1) - self.start

    def reversed_blocks(self, buf: np.ndarray):
        """The region's points from last to first, written into ``buf`` and
        yielded as views of it, each block overwritten by the next: as many
        whole rows as fit in ``buf``, or a piece of a row longer than it,
        with the region's first row (a partial one) on its own unless it fits
        after the whole rows.  A row is its m*tau, rounded as `lattice_sorted`
        rounds it, plus one descending range of n, so the points are ``==``
        the layout's."""
        width = 2 * self.N - 1
        first, c = divmod(self.start, width)  # the region's first point
        # the region's rows from the last down, each m*tau as a (1,) array
        rows = (np.arange(first - self.M + 1, self.M, dtype=np.float64)[:, None]
                * complex(self.tau))[::-1]
        # n + 0j, as numpy casts the float n of `lattice_sorted` for the sum
        n = np.arange(self.N - 1, -self.N, -1, dtype=np.float64).astype(np.complex128)
        size, last, tail = len(buf), len(rows) - 1, width - c
        per = size // width  # whole rows per block
        i = j = 0  # the next point: row i, position j of the n-range
        while i <= last:
            if per and i < last:
                k = min(per, last - i)
                np.add(rows[i:i + k], n, out=buf[:k * width].reshape(k, width))
                b, i = k * width, i + k
                if i == last and tail <= size - b:
                    np.add(rows[last], n[:tail], out=buf[b:b + tail])
                    b, i = b + tail, i + 1
            else:
                stop = width if i < last else tail
                b = min(size, stop - j)
                np.add(rows[i], n[j:j + b], out=buf[:b])
                j += b
                if j == stop:
                    i, j = i + 1, 0
            yield buf[:b]


def positive_runs(M: int, N: int, M_sub: int, N_sub: int) -> list[tuple[int, int]]:
    """Where the points w > 0 of the (M_sub, N_sub) rectangle sit among those
    of the (M, N) rectangle, both as `lattice_sorted` orders them: the
    ascending (start, stop) position ranges in ``LatticeRegion.above_zero``
    of the (M, N) lattice, adjacent ranges merged.  Row m = 0 holds n = 1 ..
    N_sub - 1 and each row 0 < m < M_sub its |n| < N_sub, so the ranges list
    the smaller region in its own order: the ``levels`` of `ordered_sum`."""
    if not (1 <= M_sub <= M and 1 <= N_sub <= N):
        raise ValueError(f"the ({M_sub}, {N_sub}) rectangle is not inside ({M}, {N})")
    runs: list[tuple[int, int]] = []
    for m in range(M_sub):
        start = 0 if m == 0 else (N - 1) + (m - 1) * (2 * N - 1) + (N - N_sub)
        stop = N_sub - 1 if m == 0 else start + 2 * N_sub - 1
        if runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], stop)
        elif stop > start:
            runs.append((start, stop))
    return runs


# ---------------------------------------------------------------------------
# ordered nested sum
# ---------------------------------------------------------------------------

# Points per block of a sweep with ``levels``, so that a call's few work
# buffers of this many complex values stay in L2 cache, while each numpy
# call runs long enough that two pooled sweeps seldom wait for the GIL.  On
# a 2-vCPU VM with 2 MiB of L2 per core, a batch of 9 multiwp_direct calls
# at M = 12, N = 2000 (per call two sweeps of 184k points, three levels
# each; medians of 4 rounds) took 127 ms with blocks of 8192 points and
# 87 ms with 16384 on two CPUs, and 120 against 122 ms on one.  A call
# without ``levels`` runs in blocks of half as many points, which were no
# slower there: single-level sweeps of the same 184k points with the split
# (medians over 6 interleaved rounds of 11) took 2.86 against 3.31 ms for
# the index (2,), 2.61 against 2.58 for (5,), 5.31 against 5.64 for
# (3,2,2) and 6.30 against 6.44 for (2,3,2,2).
_BLOCK = 16384


def _power_buffers(exps_by_shift: dict, size: int, tmp: np.ndarray) -> tuple[dict, list]:
    """Work buffers of ``size`` points for the power tables of one call.

    Returns ({(x, k): buffer} for every shift x and each of its exponents k,
    and per shift (x, reciprocal buffer, [destination of power 2, 3, ...,
    max k]]).  A power nobody asked for goes to the buffer of the next one
    asked for or to ``tmp``, alternately, so that no product is written over
    one of its factors: numpy rounds an in-place product of one element
    differently from the same product in a longer or out-of-place call."""
    tables, folds = {}, []
    for x, ks in exps_by_shift.items():
        inv = np.empty(size, dtype=np.complex128)
        if 1 in ks:
            tables[x, 1] = inv
        kept = sorted(ks - {1})
        for k in kept:
            tables[x, k] = np.empty(size, dtype=np.complex128)
        dests = []
        for k in range(2, max(ks) + 1):
            j = min(j for j in kept if j >= k)
            dests.append(tables[x, j] if (j - k) % 2 == 0 else tmp)
        folds.append((x, inv, dests))
    return tables, folds


def _slot_passes(tables, shifts, exps, rem, tmp, acc, pre, a, c, first, out) -> None:
    """Slots r-1 ... 0 of one sub-region over the block points a..c-1 (a
    stretch of its own points, in its order): each running sum starts from
    its carry in ``out`` and leaves its last value there.  ``first`` marks
    the sub-region's first point; ``rem`` is None without the split."""
    r = len(exps)
    b = c - a
    lo = 1 if first else 0
    sums, terms = pre[:b + 1], acc[1:b + 1]
    for s in range(r - 1, -1, -1):
        vals = tables[shifts[s], exps[s]][a:c]
        if s == r - 1:
            if rem is not None:
                np.multiply(vals, rem[a:c], out=terms)
            else:
                np.copyto(terms, vals)
        else:
            # slot s pairs each point with the suffix strictly after it
            if rem is not None and s == r - 2:
                nxt = np.add(sums[:-1], rem[a:c], out=tmp[:b])
                if lo:
                    nxt[0] = rem[a]
                np.multiply(nxt, vals, out=terms)
            else:
                np.multiply(vals, sums[:-1], out=terms)
                if lo:
                    terms[0] = 0.0
            out[s + 1] = complex(sums[-1])
        acc[0] = out[s]
        # the cumsum itself: np.cumsum makes a fresh "accumulate" name on
        # each call, which the interpreter's type cache can keep
        np.add.accumulate(acc[lo:b + 1], out=sums[lo:])
    out[0] = complex(sums[-1])


def ordered_sum(w, shifts, exps, split_last=False, boundary_prev=None,
                levels=None) -> list:
    """Every suffix of the ordered nested sum over the non-empty region
    ``w``, a `LatticeRegion` or an array of points, from one backward sweep.

    ``out[s]`` is the ordered sum over slots s..r-1 alone, so ``out[0]`` is
    the full depth-r sum and ``out[s]`` equals
    ``ordered_sum(w, shifts[s:], exps[s:], ...)[0]`` exactly.

    boundary_prev: for a split sum, the lattice point immediately preceding
    the region start; the last slot's depth-1 suffix ``out[r-1]`` gets the
    single surviving telescoped boundary term -1/(z - boundary_prev - 1) of
    its row.

    levels: sub-regions of ``w`` summed by the same sweep, each given as its
    ascending, disjoint (start, stop) position ranges of ``w`` (see
    `positive_runs`); the call then returns one ``out`` per sub-region, each
    ``==`` the call on ``np.concatenate([w[a:b] for a, b in ranges])``
    alone.  Without it the one sub-region is ``w`` itself and the call
    returns its ``out``.
    """
    L = len(w)
    if L == 0:
        raise ValueError("ordered_sum needs a non-empty summation region")
    shifts = [complex(x) for x in shifts]
    exps = [int(k) for k in exps]
    r = len(exps)
    if r == 0 or len(shifts) != r:
        raise ValueError(f"ordered_sum needs one shift per exponent and at least one "
                         f"exponent, got {len(shifts)} shifts and {r} exponents")
    # each sub-region's ranges of the reversed region, in sweep order
    swept = []
    for ranges in ([[(0, L)]] if levels is None else levels):
        ranges = [(int(a), int(b)) for a, b in ranges]
        ends = [e for rng in ranges for e in rng]
        if not ends or ends != sorted(ends) or ends[0] < 0 or ends[-1] > L or ends[0] == ends[-1]:
            raise ValueError(f"ordered_sum needs ascending, disjoint, non-empty ranges "
                             f"within 0..{L} for each level, got {ranges}")
        swept.append([(L - b, L - a) for a, b in reversed(ranges) if b > a])
    split_last = bool(split_last and exps[-1] == 2)
    zr = shifts[-1]
    exps_by_shift: dict = {}
    for x, k in zip(shifts, exps):
        exps_by_shift.setdefault(x, set()).add(k)
    if split_last:
        exps_by_shift[zr].add(2)
    size = min(L, _BLOCK if levels is not None else _BLOCK // 2)
    tmp = np.empty(size, dtype=np.complex128)
    tables, folds = _power_buffers(exps_by_shift, size, tmp)
    rem = np.empty(size, dtype=np.complex128) if split_last else None
    # acc[1 + i] is a slot's term at block point i and pre[1 + i] its suffix
    # sum; acc[0] = pre[0] is the suffix sum carried from the sub-region's
    # previous point (0 before its first point, whose shifted product reads
    # it).  One pair serves every sub-region in turn.
    acc = np.empty(size + 1, dtype=np.complex128)
    pre = np.zeros(size + 1, dtype=np.complex128)
    # outs[l][s]: sub-region l's slot s suffix sum through its points swept
    outs = [[0j] * r for _ in swept]
    pending = [0] * len(swept)  # index of each sub-region's next range
    if isinstance(w, LatticeRegion):
        blocks = w.reversed_blocks(tmp)
    else:
        # an integer region (multitangent_direct) is converted block by block
        wr = np.asarray(w)[::-1]
        blocks = (wr[i0:i0 + size].astype(np.complex128, copy=False)
                  for i0 in range(0, L, size))
    i1 = 0
    for blk in blocks:
        i0, b = i1, len(blk)
        i1 = i0 + b
        # every x - w and V_r - 1 first: the powers below may be written
        # over tmp, which holds a lattice region's block
        for x, inv, _ in folds:
            np.subtract(x, blk, out=inv[:b])
        if split_last:
            # -1/(V_r - 1): a factor of the split term and the telescoped row
            # remainder added after slot r-2
            np.subtract(blk, zr - 1.0, out=rem[:b])
            np.reciprocal(rem[:b], out=rem[:b])
        for x, inv, dests in folds:
            p = np.reciprocal(inv[:b], out=inv[:b])
            for d in dests:
                p = np.multiply(p, inv[:b], out=d[:b])
        for lv, ranges in enumerate(swept):
            j = pending[lv]
            while j < len(ranges) and ranges[j][0] < i1:
                a, c = ranges[j]
                _slot_passes(tables, shifts, exps, rem, tmp, acc, pre, max(a, i0) - i0,
                             min(c, i1) - i0, j == 0 and a >= i0, outs[lv])
                if c > i1:
                    break
                j += 1
            pending[lv] = j
    if split_last and boundary_prev is not None:
        for out in outs:
            out[r - 1] += -1.0 / (zr - complex(boundary_prev) - 1.0)
    return outs[0] if levels is None else outs


# ---------------------------------------------------------------------------
# concurrent sweeps
# ---------------------------------------------------------------------------

_POOL = None
_POOL_LOCK = threading.Lock()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=_usable_cpus(),
                                       thread_name_prefix="multiwp-sweep")
        return _POOL


def _drop_pool_in_child() -> None:
    # the child has none of the parent's worker threads, and the lock may
    # have been held by one of them at the fork
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool_in_child)


def ordered_sums(calls) -> list[list[complex]]:
    """``[ordered_sum(*call) for call in calls]``, with the calls run at once
    on the module's thread pool.  Each call is a tuple of positional
    arguments of ``ordered_sum``; submit the largest first, so that the
    workers finish together."""
    pool = _POOL or _pool()
    futures = [pool.submit(ordered_sum, *call) for call in calls]
    for f in futures:
        f.exception()  # wait for every call before raising the first error
    return [f.result() for f in futures]


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

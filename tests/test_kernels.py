import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from multiwp import kernels, meisen, multip
from multiwp.core import EvalConfig, Index, compositions_ge2
from multiwp.kernels import (LatticeRegion, kahan_cumsum, lattice_sorted, ordered_sum,
                             ordered_sums, positive_runs)
from multiwp.meisen import meis_direct
from multiwp.multip import _multivar_split, multiwp_direct


def test_lattice_sorted_order():
    tau = 0.3 + 1.1j
    w, pos0 = lattice_sorted(tau, 3, 5)
    assert len(w) == 5 * 9
    assert w[pos0] == 0
    # strictly increasing in the (m, n) lexicographic order
    m = np.round(w.imag / tau.imag).astype(int)
    n = np.round(w.real - m * tau.real).astype(int)
    keys = list(zip(m.tolist(), n.tolist()))
    assert keys == sorted(keys)


def _bits(values):
    return np.array(values, dtype=np.complex128).view(np.float64).tobytes()


# rows of 1 to 17 points, against blocks of 1 to 100 points
@pytest.mark.parametrize("M, N", [(1, 2), (1, 6), (3, 1), (3, 2), (4, 5), (2, 9)])
@pytest.mark.parametrize("size", [1, 2, 4, 7, 100])
@pytest.mark.parametrize("tau", [0.4 + 1.2j, -0.3 + 0.9j])
def test_region_blocks_are_the_reversed_lattice(M, N, size, tau):
    w, pos0 = lattice_sorted(tau, M, N)
    width = 2 * N - 1
    assert LatticeRegion.above_zero(tau, M, N) == LatticeRegion(tau, M, N, pos0 + 1)
    for start in (0, pos0 + 1):
        region = LatticeRegion(tau, M, N, start)
        want = w[start:][::-1]
        assert len(region) == len(want)
        buf = np.empty(size, dtype=np.complex128)
        i = 0
        for blk in region.reversed_blocks(buf):
            assert 0 < len(blk) <= size and np.shares_memory(blk, buf)
            assert _bits(blk) == _bits(want[i:i + len(blk)]), (start, i)
            # whole rows while they fit; else pieces of one row, cut mid-row
            if width <= size:
                assert i % width == 0
            else:
                assert i // width == (i + len(blk) - 1) // width
            i += len(blk)
        assert i == len(want)


@pytest.mark.parametrize("M, N, start", [(0, 3, 0), (2, 0, 0), (2, 3, -1), (2, 3, 16)])
def test_region_must_lie_in_its_lattice(M, N, start):
    with pytest.raises(ValueError, match="no lattice region"):
        LatticeRegion(0.4 + 1.2j, M, N, start)


def test_ordered_sum_depth1_matches_plain_sum():
    tau = 2j
    w, pos0 = lattice_sorted(tau, 8, 50)
    region = w[pos0 + 1:]
    got = ordered_sum(region, [0.0], [3])[0]
    want = np.sum((0.0 - region) ** -3.0)
    assert abs(got - want) < 1e-14


def test_ordered_sum_depth2_matches_double_loop():
    tau = 1j
    w, pos0 = lattice_sorted(tau, 3, 6)
    region = w[pos0 + 1:]
    z = 0.3 + 0.2j
    got = ordered_sum(region, [z, z], [3, 4])[0]
    vals1 = (z - region) ** -3.0
    vals2 = (z - region) ** -4.0
    want = sum(vals1[i] * vals2[j] for i in range(len(region))
               for j in range(i + 1, len(region)))
    assert abs(got - want) < 1e-13


def test_split_matches_plain_in_the_limit():
    # trailing-2 split evaluates the same inner limit, much faster in N
    tau = 2j
    vals = {}
    for N, split in [(400, True), (400, False), (40000, True)]:
        w, pos0 = lattice_sorted(tau, 6, N)
        region = w[pos0 + 1:]
        vals[(N, split)] = ordered_sum(region, [0.0, 0.0], [3, 2],
                                       split_last=split, boundary_prev=None)[0]
    limit = vals[(40000, True)]
    assert abs(vals[(400, True)] - limit) < 5e-5
    assert abs(vals[(400, True)] - limit) < abs(vals[(400, False)] - limit)


EPS = np.finfo(np.complex128).eps


def _nested_loop_sum(region, shifts, exps, split, boundary_prev):
    """The split ordered sum term by term: slot values (with the last slot's
    -1/((V-1) V^2) under the split), the telescoped row remainder
    -1/(z_r - w - 1) after the second-to-last slot, and for depth 1 the
    boundary row's surviving term.  Returns (sum, the same sum over the
    absolute values of its factors), the second the scale of the rounding."""
    r, L = len(exps), len(region)
    split = split and exps[-1] == 2

    def f(s, j):
        v = complex(shifts[s]) - complex(region[j])
        if s == r - 1 and split:
            return -1.0 / ((v - 1.0) * v * v)
        return v ** -exps[s]

    def tail(s, j0):
        if s == r:
            return 1.0, 1.0
        total, size = 0.0, 0.0
        for j in range(j0, L):
            inner, inner_size = tail(s + 1, j + 1)
            if split and s == r - 2:
                rem = -1.0 / (complex(shifts[-1]) - complex(region[j]) - 1.0)
                inner, inner_size = inner + rem, inner_size + abs(rem)
            total += f(s, j) * inner
            size += abs(f(s, j)) * inner_size
        return total, size

    out, size = tail(0, 0)
    if split and r == 1:
        out += -1.0 / (complex(shifts[0]) - boundary_prev - 1.0)
    return out, size


def _kernel_tol(exps, L):
    """Rounding budget relative to the absolute-value sum: per factor one
    reciprocal, k - 1 products and one product with the inner sum, and one
    addition per point in each running sum."""
    return 4 * EPS * (sum(exps) + 2 * len(exps) + L)


# exponents 2..10, at depths 1 to 4, with and without a trailing 2
KERNEL_EXPS = [(2,), (3, 2), (2, 4, 2), (3, 2, 2, 2), (7,), (10,), (9, 4), (8, 5, 6), (10, 2, 3, 2)]
SHIFTS = [0.31 + 0.17j, -0.2 + 0.05j, 0.13 - 0.41j, 0.07 + 0.23j]


def _check_every_suffix(exps, shifts, split):
    """Each suffix sum against the nested loop, and == the call on that
    suffix alone."""
    w, pos0 = lattice_sorted(0.4 + 1.2j, 3, 4)
    region = w[pos0 + 1:]
    out = ordered_sum(region, shifts, list(exps), split_last=split, boundary_prev=0.0)
    assert len(out) == len(exps)
    for s in range(len(exps)):
        ref, size = _nested_loop_sum(region, shifts[s:], exps[s:], split, 0.0)
        tol = _kernel_tol(exps[s:], len(region))
        assert abs(out[s] - ref) <= tol * (1 + size), (s, out[s], ref)
        single = ordered_sum(region, shifts[s:], list(exps[s:]), split_last=split,
                             boundary_prev=0.0)[0]
        assert out[s] == single, s


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("exps", KERNEL_EXPS)
def test_every_suffix_matches_nested_loop_and_single_sweep(exps, split):
    # one shift per slot, as multiwp_multivar sweeps
    _check_every_suffix(exps, SHIFTS[:len(exps)], split)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("exps", KERNEL_EXPS)
def test_equal_shifts_match_nested_loop_and_single_sweep(exps, split):
    # one shift in every slot, as multiwp_direct and meis_direct sweep
    _check_every_suffix(exps, [SHIFTS[0]] * len(exps), split)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("exps", [(2,), (5, 3), (2, 7, 2)])
def test_integer_region_matches_nested_loop(exps, split):
    # multitangent_direct sums over an integer array: z - (-n) = z + n
    region = -np.arange(-6, 7)
    shifts = [0.27 + 0.11j] * len(exps)
    out = ordered_sum(region, shifts, list(exps), split_last=split, boundary_prev=-7)
    for s in range(len(exps)):
        ref, size = _nested_loop_sum(region, shifts[s:], exps[s:], split, -7)
        assert abs(out[s] - ref) <= _kernel_tol(exps[s:], len(region)) * (1 + size)


def test_empty_region_is_a_typed_error():
    with pytest.raises(ValueError):
        ordered_sum(np.empty(0, dtype=complex), [0.3], [3])


@pytest.mark.parametrize("shifts, exps", [([0.3, 0.4, 0.5], [2, 3]), ([0.3], [2, 2]),
                                          ([], []), ([0.3], [])])
def test_shift_and_exponent_counts_are_checked(shifts, exps):
    region = lattice_sorted(0.4 + 1.2j, 3, 4)[0][20:]
    with pytest.raises(ValueError, match=f"{len(shifts)} shifts and {len(exps)} exponents"):
        ordered_sum(region, shifts, exps)


def _one_pass_sum(w, shifts, exps, split_last=False, boundary_prev=None):
    """The sweep over the whole region at once, with tables and work arrays
    of the region's length: the arithmetic the blocked kernel must repeat
    bit for bit.  No product is written over one of its factors, since numpy
    rounds such a product differently when the array has one element."""
    w = np.asarray(w, dtype=np.complex128)
    shifts = [complex(x) for x in shifts]
    exps = [int(k) for k in exps]
    r, L = len(exps), len(w)
    split_last = bool(split_last and exps[-1] == 2)
    zr = shifts[-1]
    wr = w[::-1]
    exps_by_shift = {}
    for x, k in zip(shifts, exps):
        exps_by_shift.setdefault(x, set()).add(k)
    if split_last:
        exps_by_shift[zr].add(2)
        rem = np.reciprocal(np.subtract(wr, zr - 1.0))
    tables = {}
    for x, ks in exps_by_shift.items():
        inv = np.reciprocal(np.subtract(x, wr))
        p = inv
        tables[x, 1] = inv
        for k in range(2, max(ks) + 1):
            p = p * inv
            tables[x, k] = p
    pre = None
    out = [0j] * r
    for s in range(r - 1, -1, -1):
        vals = tables[shifts[s], exps[s]]
        if s == r - 1:
            acc = vals * rem if split_last else vals
        else:
            acc = np.empty(L, dtype=np.complex128)
            if split_last and s == r - 2:
                acc[1:] = pre[:-1] + rem[1:]
                acc[0] = rem[0]
                acc = acc * vals
            else:
                acc[1:] = vals[1:] * pre[:-1]
                acc[0] = 0.0
        pre = np.cumsum(acc)
        out[s] = complex(pre[-1])
    if split_last and boundary_prev is not None:
        out[r - 1] += -1.0 / (zr - complex(boundary_prev) - 1.0)
    return out


BLOCK = 7
BLOCK_EXPS = [(2,), (5,), (1, 2), (3, 2), (2, 4, 2), (4, 3, 3), (3, 2, 2, 2), (2, 3, 1, 4)]


@pytest.mark.parametrize("L", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
@pytest.mark.parametrize("exps", BLOCK_EXPS)
def test_blocks_repeat_the_one_pass_sweep(L, exps, monkeypatch):
    # block boundaries at every position relative to the region's ends: the
    # first L points w > 0 as an array, and the last L points as a lattice
    # region, in rows of 9 against blocks of 3
    monkeypatch.setattr(kernels, "_BLOCK", BLOCK)
    tau = 0.4 + 1.2j
    w, pos0 = lattice_sorted(tau, 4, 5)
    start = len(w) - L
    cases = [(w[pos0 + 1:pos0 + 1 + L], w[pos0 + 1:pos0 + 1 + L], w[pos0]),
             (LatticeRegion(tau, 4, 5, start), w[start:], w[start - 1])]
    for region, points, prev in cases:
        assert len(region) == len(points) == L
        for shifts in ([SHIFTS[0]] * len(exps), SHIFTS[:len(exps)]):
            for split in (False, True):
                got = ordered_sum(region, shifts, list(exps), split_last=split,
                                  boundary_prev=prev)
                ref = _one_pass_sum(points, shifts, list(exps), split_last=split,
                                    boundary_prev=prev)
                assert got == ref and _bits(got) == _bits(ref), (region, shifts, split)


@pytest.mark.parametrize("exps", [(2,), (5, 3), (2, 7, 2), (2, 2, 2, 2)])
def test_blocks_repeat_the_one_pass_sweep_on_integers(exps, monkeypatch):
    # the multitangent_direct region, without and with a split
    monkeypatch.setattr(kernels, "_BLOCK", BLOCK)
    region = -np.arange(-12, 13)
    shifts = [0.27 + 0.11j] * len(exps)
    for split in (False, True):
        got = ordered_sum(region, shifts, list(exps), split_last=split, boundary_prev=-13)
        ref = _one_pass_sum(region, shifts, list(exps), split_last=split, boundary_prev=-13)
        assert got == ref and _bits(got) == _bits(ref), split


@pytest.mark.parametrize("M, N, M_sub, N_sub", [(4, 7, 4, 7), (4, 7, 4, 3), (4, 7, 2, 1),
                                                 (4, 7, 1, 5), (5, 9, 3, 4), (3, 2, 3, 1)])
def test_positive_runs_list_the_smaller_region(M, N, M_sub, N_sub):
    tau = 0.4 + 1.2j
    w, pos0 = lattice_sorted(tau, M, N)
    sub, sub0 = lattice_sorted(tau, M_sub, N_sub)
    runs = positive_runs(M, N, M_sub, N_sub)
    assert all(a < b for a, b in runs) and all(b < a for (_, b), (a, _) in zip(runs, runs[1:]))
    got = np.concatenate([w[pos0 + 1:][a:b] for a, b in runs])
    assert _bits(got) == _bits(sub[sub0 + 1:])


def test_positive_runs_need_a_rectangle_inside():
    for sub in [(5, 3), (4, 8), (0, 3), (2, 0)]:
        with pytest.raises(ValueError, match="is not inside"):
            positive_runs(4, 7, *sub)


# sub-regions of the 38 points w > 0 of the (4, 6) lattice, swept in blocks
# of 7: the lattice levels of a Richardson step (the top one a single run),
# rows of one point each, a level whose first run starts mid-block, and
# adjacent runs left unmerged
LEVEL_M, LEVEL_N = 4, 6
LEVELS = ([positive_runs(LEVEL_M, LEVEL_N, LEVEL_M, n) for n in (6, 3, 2, 1)]
          + [positive_runs(LEVEL_M, LEVEL_N, 2, 5), [(0, 1)], [(37, 38)],
             [(3, 4), (6, 20), (20, 21), (33, 36)]])


@pytest.mark.parametrize("exps", BLOCK_EXPS)
def test_each_level_of_one_sweep_equals_its_own_sweep(exps, monkeypatch):
    tau = 0.4 + 1.2j
    w, pos0 = lattice_sorted(tau, LEVEL_M, LEVEL_N)
    region, prev = w[pos0 + 1:], w[pos0]
    assert len(region) == 38 and [b - a for a, b in LEVELS[3]] == [1, 1, 1]
    # rows of 11 points against blocks of 7, and of 25: two whole rows, then
    # the last whole row with the 5 points of the row m = 0
    for block in (BLOCK, 25):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for swept in (region, LatticeRegion.above_zero(tau, LEVEL_M, LEVEL_N)):
            for shifts in ([SHIFTS[0]] * len(exps), SHIFTS[:len(exps)]):
                for split in (False, True):
                    got = ordered_sum(swept, shifts, list(exps), split, prev, LEVELS)
                    assert len(got) == len(LEVELS)
                    for out, ranges in zip(got, LEVELS):
                        sub = np.concatenate([region[a:b] for a, b in ranges])
                        alone = ordered_sum(sub, shifts, list(exps), split_last=split,
                                            boundary_prev=prev)
                        assert _bits(out) == _bits(alone), (block, swept, shifts, split)


class _NanEmpty:
    """numpy, with `empty` filled with NaN: memory left from an earlier call."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        out = np.empty(shape, dtype)
        out.fill(complex(np.nan, np.nan) if np.dtype(dtype).kind == "c" else np.nan)
        return out


@pytest.mark.parametrize("exps", BLOCK_EXPS)
def test_sweep_reads_no_work_array_before_writing_it(exps, monkeypatch):
    # the call's work arrays come from one uninitialized allocation
    tau = 0.4 + 1.2j
    w, pos0 = lattice_sorted(tau, LEVEL_M, LEVEL_N)
    monkeypatch.setattr(kernels, "_BLOCK", BLOCK)
    calls = [(swept, shifts, list(exps), split, w[pos0], levels)
             for swept in (w[pos0 + 1:], LatticeRegion.above_zero(tau, LEVEL_M, LEVEL_N))
             for shifts in ([SHIFTS[0]] * len(exps), SHIFTS[:len(exps)])
             for split in (False, True) for levels in (None, LEVELS)]
    clean = [ordered_sum(*call) for call in calls]
    monkeypatch.setattr(kernels, "np", _NanEmpty())
    for call, want in zip(calls, clean):
        assert _bits(ordered_sum(*call)) == _bits(want), call[1:4]


@pytest.mark.parametrize("levels",[[[(0, 5)], []], [[(4, 9), (2, 3)]], [[(0, 5), (4, 9)]],
                                    [[(0, 5), (7, 6)]], [[(3, 3)]], [[(-1, 3)]], [[(30, 39)]]])
def test_levels_must_be_ascending_disjoint_ranges_inside_the_region(levels):
    w, pos0 = lattice_sorted(0.4 + 1.2j, LEVEL_M, LEVEL_N)
    with pytest.raises(ValueError, match="ascending, disjoint, non-empty ranges"):
        ordered_sum(w[pos0 + 1:], [0.3], [3], levels=levels)


def _traced_peak(region, shifts, exps, levels=None):
    tracemalloc.start()
    try:
        ordered_sum(region, shifts, exps, split_last=True, boundary_prev=0.0, levels=levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_region():
    # the 4N region of a lattice-check batch (M=12, N=8000): 184k points,
    # 2.9 MB per region-length complex array
    tau, z = 0.3 + 1.1j, 0.23 + 0.17j
    # one untraced sweep of the largest region first: numpy keeps some small
    # allocations of a sweep for later calls, which the first traced sweep
    # would count alone
    w, pos0 = lattice_sorted(tau, 12, 8000)
    ordered_sum(w[pos0 + 1:], [z] * 3, [4, 3, 2], split_last=True, boundary_prev=0.0)
    peaks = {}
    for N in (2000, 8000):
        w, pos0 = lattice_sorted(tau, 12, N)
        peaks[N] = _traced_peak(w[pos0 + 1:], [z] * 3, [4, 3, 2])
    assert len(w) - pos0 - 1 > 180_000
    assert peaks[8000] < 4 * 2**20
    assert peaks[8000] <= peaks[2000]
    # the same region swept once for the three Richardson levels N, 2N, 4N
    levels = [positive_runs(12, 8000, 12, n) for n in (8000, 4000, 2000)]
    assert _traced_peak(w[pos0 + 1:], [z] * 3, [4, 3, 2], levels) < 4 * 2**20


_BATCHES_RSS = """
import resource
from multiwp.core import EvalConfig
from multiwp.multip import multiwp_direct

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cfg = EvalConfig(M=12, N=2000)
batch = [(2,), (6,), (3, 2), (2, 5), (2, 2, 2), (3, 2, 4), (2, 4, 2), (2, 2, 2, 2), (3, 2, 2, 3)]
for j, tau in enumerate([0.3 + 1.1j, -0.2 + 0.9j, 0.45 + 1.3j, 0.1 + 0.8j]):
    for ix in batch:
        multiwp_direct(ix, 0.23 + 0.17j - 0.05j * j, tau, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_lattice_batches_memory_stays_near_the_import():
    # the direct sums of four lattice-check batches at four tau, in a fresh
    # process: each 4N lattice has 368k points (5.9 MB as an array), and a
    # split evaluation sweeps its w > 0 half twice at once
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _BATCHES_RSS], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    grown_kib = int(run.stdout.split()[-1])
    assert grown_kib <= 12 * 1024


def test_threads_sweeping_at_once_match_serial_sweeps():
    tau = 0.3 + 1.1j
    w, pos0 = lattice_sorted(tau, 6, 3000)
    # the region job is the first, so two threads sweep the same region
    jobs = [(LatticeRegion.above_zero(tau, 6, 3000), [0.23 + 0.17j] * 3, [4, 3, 2]),
            (w[pos0 + 1:], [0.23 + 0.17j] * 3, [3, 2, 2]),
            (w[:pos0][::-1], [-0.23 - 0.17j] * 4, [2, 4, 3, 2]),
            (w[pos0 + 1:pos0 + 20_000], SHIFTS[:2], [5, 2])]
    serial = [ordered_sum(reg, sh, ex, split_last=True, boundary_prev=0.0)
              for reg, sh, ex in jobs]
    assert serial[0] == ordered_sum(w[pos0 + 1:], [0.23 + 0.17j] * 3, [4, 3, 2],
                                    split_last=True, boundary_prev=0.0)
    results = {}

    def work(i):
        reg, sh, ex = jobs[i % len(jobs)]
        results[i] = [ordered_sum(reg, sh, ex, split_last=True, boundary_prev=0.0)
                      for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(6):
        assert results[i] == [serial[i % len(jobs)]] * 3, i


def _power_sweep(w, shifts, exps, split_last=False, boundary_prev=None, levels=None):
    """The sweep with a complex power v ** -k per slot and one division per
    split term: an independent route to the lattice evaluators' values.
    With ``levels``, one such sweep per sub-region, cut out of ``w``; a
    lattice region is read as the same points from `lattice_sorted`."""
    if isinstance(w, LatticeRegion):
        w = lattice_sorted(w.tau, w.M, w.N)[0][w.start:]
    if levels is not None:
        return [_power_sweep(np.concatenate([np.asarray(w)[a:b] for a, b in ranges]),
                             shifts, exps, split_last, boundary_prev) for ranges in levels]
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


@pytest.mark.parametrize("z, tau", [(0.23 + 0.17j, 0.3 + 1.1j), (-0.31 + 0.4j, -0.2 + 0.9j)])
def test_lattice_evaluators_match_the_power_sweep(z, tau, monkeypatch):
    cfg = EvalConfig(M=4, N=40)
    indices = [ix for wt in range(2, 9) for ix in compositions_ge2(wt)]

    def values():
        return ([multiwp_direct(ix, z, tau, cfg) for ix in indices]
                + [meis_direct(ix, tau, cfg) for ix in indices])

    got = values()
    monkeypatch.setattr(kernels, "ordered_sum", _power_sweep)
    monkeypatch.setattr(multip, "ordered_sum", _power_sweep)
    monkeypatch.setattr(meisen, "ordered_sum", _power_sweep)
    ref = values()
    for g, r, ix in zip(got, ref, indices + indices):
        assert abs(g - r) <= 1e-13 * (1 + abs(r)), (ix, g, r)


def _split_one_factor_per_call(index, zs, tau, cfg):
    """The split at 0 with one kernel call per prefix and suffix factor."""
    r = index.depth
    K = [0]
    for k in index:
        K.append(K[-1] + k)
    w, pos0 = lattice_sorted(tau, cfg.M, cfg.N)
    region = w[pos0 + 1:]

    def tilde(idx, args):
        if not idx:
            return 1.0 + 0.0j
        return ordered_sum(region, [complex(x) for x in args], list(idx),
                           split_last=idx[-1] == 2, boundary_prev=0.0)[0]

    total = 0.0 + 0.0j
    for i in range(r + 1):
        a = tilde(index[:i][::-1], [-zs[j] for j in range(i - 1, -1, -1)])
        b = tilde(index[i:], [zs[j] for j in range(i, r)])
        total += (-1) ** (K[i] % 2) * a * b
    for i in range(1, r + 1):
        a = tilde(index[:i - 1][::-1], [-zs[j] for j in range(i - 2, -1, -1)])
        b = tilde(index[i:], [zs[j] for j in range(i, r)])
        total += zs[i - 1] ** float(-index[i - 1]) * (-1) ** (K[i - 1] % 2) * a * b
    return total


@pytest.mark.parametrize("ix", [(2,), (3, 2), (2, 3), (2, 2, 2), (4, 2, 3), (2, 3, 2, 2)])
def test_two_sweep_split_equals_one_call_per_factor(ix):
    tau = 0.3 + 1.1j
    cfg = EvalConfig(M=4, N=60)
    zs = [0.21 + 0.13j, -0.17 + 0.29j, 0.33 - 0.11j, 0.05 + 0.4j][:len(ix)]
    index = Index(ix)
    # the level N of each chain's three-level sweep
    fwd, rev = (ordered_sum(*meisen._tilde_sweep(chain, shifts, tau, cfg))[2]
                for chain, shifts in multip._split_chains(index, zs))
    assert _multivar_split(index, zs, fwd, rev) == _split_one_factor_per_call(index, zs, tau, cfg)


# ---------------------------------------------------------------------------
# concurrent sweeps
# ---------------------------------------------------------------------------

def _sweep_jobs():
    tau = 0.3 + 1.1j
    w, pos0 = lattice_sorted(tau, 6, 3000)
    return [(w[pos0 + 1:], [0.23 + 0.17j] * 3, [3, 2, 2], True, 0.0),
            (w[:pos0][::-1], [-0.23 - 0.17j] * 4, [2, 4, 3, 2], True, 0.0),
            (w[pos0 + 1:pos0 + 20_000], SHIFTS[:2], [5, 2], True, 0.0),
            (w[pos0 + 1:pos0 + 50], SHIFTS[:3], [2, 3, 4])]


def test_ordered_sums_equal_the_calls_made_one_by_one():
    jobs = _sweep_jobs()
    assert ordered_sums(jobs) == [ordered_sum(*job) for job in jobs]
    assert ordered_sums([]) == []


def test_ordered_sums_raise_the_error_of_a_call():
    jobs = _sweep_jobs()
    with pytest.raises(ValueError):
        ordered_sums([jobs[0], (jobs[0][0][:0], [1j], [2])])


def test_pool_has_one_worker_per_usable_cpu():
    ordered_sums(_sweep_jobs()[3:])
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    assert kernels._POOL._max_workers == usable


def test_import_leaves_the_pool_and_its_module_unloaded():
    code = ("import sys, multiwp, multiwp.kernels as k; "
            "assert k._POOL is None; assert 'concurrent.futures' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_after_the_pool_was_used():
    tau, z, cfg = 0.3 + 1.1j, 0.23 + 0.17j, EvalConfig(M=4, N=300)
    want = multiwp_direct((3, 2, 2), z, tau, cfg)
    assert kernels._POOL is not None
    with multiprocessing.get_context("fork").Pool(1) as child:
        got = child.apply_async(multiwp_direct, ((3, 2, 2), z, tau, cfg)).get(timeout=60)
    assert got == want


def test_kahan_cumsum_matches_fsum():
    # decaying positive terms, the MZV partial-sum shape
    n = np.arange(1.0, 2e5 + 1)
    y = n ** -2.0
    out = kahan_cumsum(y)
    assert abs(out[-1] - math.fsum(y)) < 5e-16
    mid = len(y) // 2
    assert abs(out[mid] - math.fsum(y[:mid + 1])) < 5e-16
    # mixed signs: error stays at the fsum scale relative to sum |y|
    rng = np.random.default_rng(1)
    y = rng.standard_normal(20000)
    out = kahan_cumsum(y)
    assert abs(out[-1] - math.fsum(y)) < 1e-13 * np.sum(np.abs(y))


def _kahan_cumsum_complex_reference(y):
    """Separate extended-precision cumsums of the real and imaginary parts."""
    y = np.asarray(y, dtype=np.complex128)
    re = np.cumsum(y.real.astype(np.longdouble))
    im = np.cumsum(y.imag.astype(np.longdouble))
    return (re + 1j * im).astype(np.complex128)


def test_kahan_cumsum_complex_matches_componentwise_formula():
    # shifted decaying terms, the Hurwitz MZV partial-sum shape, and mixed signs
    n = np.arange(0, 200001, dtype=complex)
    rng = np.random.default_rng(2)
    for y in ((0.3 + 0.2j + n[1:]) ** -2.0,
              rng.standard_normal(20000) + 1j * rng.standard_normal(20000)):
        out = kahan_cumsum(y)
        assert out.dtype == np.complex128
        assert np.array_equal(out, _kahan_cumsum_complex_reference(y))
    assert kahan_cumsum(np.ones(3)).dtype == np.float64

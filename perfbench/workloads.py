"""The three benchmark workloads: seeded inputs and the checks run on them.

Each workload yields units of work; a unit is a list of checks, and a check
is a callable returning True when the program's result matches an
independent route (or the paper's table) at the stated tolerance.  A check
takes ``tick``, which a long check calls between its steps so that the
machine's speed can be sampled inside it.  The
inputs come only from the seed and from the generators here: the (z, tau)
sampler, the index enumeration and the paper's ranks are the benchmark's
own, so a refactor of ``multiwp.verify`` or ``multiwp.core`` cannot change
the workload.  Library calls go through module attributes at call time, so
the traced run sees them.
"""
from __future__ import annotations

import sys
from itertools import count

import numpy as np

# rel_anti of the paper's relation-count table, weights 12-15.
PAPER_REL_ANTI = {12: 40, 13: 62, 14: 115, 15: 188}

LATTICE_TOL = 1e-6      # relative: |direct - reduced| <= tol (1 + |reduced|)
ANTIPODE_TOL = 1e-8     # absolute residual of a relation that vanishes
PRODUCT_TOL = 1e-8      # relative to 1 + |Gt_a Gt_b|


def compositions(weight: int) -> list[tuple[int, ...]]:
    """All compositions of weight into parts >= 2, in lexicographic order."""
    if weight == 0:
        return [()]
    return sorted((first,) + rest for first in range(2, weight + 1)
                  for rest in compositions(weight - first))


def sample_tau(rng) -> complex:
    """tau in the standard fundamental domain, |Re| <= 0.45, 0.9 <= Im <= 1.7."""
    while True:
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.7))
        if abs(tau) >= 1.02:
            return tau


def sample_z(rng) -> complex:
    return complex(rng.uniform(0.12, 0.38), rng.uniform(0.08, 0.30))


def cycle_shuffled(rng, items):
    """Endless stream of items, one seeded permutation after another."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def _lib(name):
    return sys.modules[f"multiwp.{name}"]


# Calibration loops, timed between checks to follow the speed of a shared
# host (see run.py).  Each workload uses the one that slows down most like
# its own hot code; the nominal times are those of the reference machine.
_W = np.exp(1j * np.linspace(0.0, 6.0, 20000)) * np.linspace(1.0, 40.0, 20000)


def complex_power_loop() -> None:
    """numpy complex powers and a cumulative sum over 20 000 points, like
    the lattice kernel."""
    np.cumsum(((0.3 + 0.2j) - _W) ** -3.0)


def interpreter_loop() -> None:
    """Small tuples, dict lookups and complex arithmetic, like the
    package's Python code."""
    d: dict = {}
    for i in range(1000):
        t = tuple(int(x) for x in (i % 97, i % 13, 2))
        d[t] = d.get(t, 0) + complex(i, 1) * 0.5


class LatticeCheck:
    """multiwp_direct against multiwp_reduce(...).evaluate at one (z, tau)
    per batch of 9 indices of weight <= 10: two each of depth 1, 2 and 4,
    three of depth 3."""

    name = "lattice-check"
    unit_s = 1.8            # nominal seconds per unit; sizes the traced run
    calibration = staticmethod(complex_power_loop)
    cal_nominal_s = 0.45e-3
    # Latency grows in steps with depth.  With equal counts per depth the
    # median falls exactly between the depth-2 and depth-3 checks and swings
    # with the slowest and fastest of those; one more depth-3 check puts the
    # median inside depth 3 and p90 inside depth 4.
    per_depth = {1: 2, 2: 2, 3: 3, 4: 2}

    def __init__(self, seed: int):
        from multiwp.core import EvalConfig
        self.cfg = EvalConfig(M=12, N=2000)
        self.rng = np.random.default_rng(seed)
        by_depth = {d: [] for d in self.per_depth}
        for w in range(2, 11):
            for ix in compositions(w):
                if len(ix) in by_depth:
                    by_depth[len(ix)].append(ix)
        self.streams = {d: cycle_shuffled(self.rng, ixs) for d, ixs in by_depth.items()}

    def check(self, ix, z, tau) -> bool:
        multip = _lib("multip")
        direct = multip.multiwp_direct(ix, z, tau, self.cfg)
        reduced = multip.multiwp_reduce(ix).evaluate(z, tau)
        return abs(direct - reduced) <= LATTICE_TOL * (1.0 + abs(reduced))

    def units(self):
        while True:
            z, tau = sample_z(self.rng), sample_tau(self.rng)
            batch = [next(self.streams[d]) for d, n in self.per_depth.items() for _ in range(n)]
            order = self.rng.permutation(len(batch))
            yield [lambda tick, ix=batch[i], z=z, tau=tau: self.check(ix, z, tau)
                   for i in order]


class QexpCheck:
    """Alternating antipode-relation and harmonic-product residuals, each at a
    fresh tau, so the tau-keyed caches never hit across checks."""

    name = "qexp-check"
    unit_s = 0.015
    calibration = staticmethod(interpreter_loop)
    cal_nominal_s = 1.2e-3

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.sources = [ix for w in range(9, 14) for ix in compositions(w) if len(ix) >= 2]
        small = [ix for w in range(2, 13) for ix in compositions(w) if len(ix) <= 2]
        self.pairs = [(a, b) for i, a in enumerate(small) for b in small[i:]
                      if 8 <= sum(a) + sum(b) <= 14]

    def antipode(self, src, tau) -> bool:
        relations = _lib("relations")
        res = relations.combination_residual(relations.antipode_relation(src), tau)
        return res <= ANTIPODE_TOL

    def product(self, a, b, tau) -> bool:
        meis_qexp = _lib("meisen").meis_qexp
        lhs = meis_qexp(a, tau) * meis_qexp(b, tau)
        rhs = sum(c * meis_qexp(w, tau) for w, c in _lib("core").stuffle(a, b).items())
        return abs(lhs - rhs) <= PRODUCT_TOL * (1.0 + abs(lhs))

    def units(self):
        sources = cycle_shuffled(self.rng, self.sources)
        pairs = cycle_shuffled(self.rng, self.pairs)
        for i in count():
            tau = sample_tau(self.rng)
            if i % 2 == 0:
                yield [lambda tick, src=next(sources), tau=tau: self.antipode(src, tau)]
            else:
                yield [lambda tick, ab=next(pairs), tau=tau: self.product(*ab, tau)]


class RelationRank:
    """Exact ranks at weights 12-15 from relation_rows into RelationMatrix,
    each pass from cold caches, as in one ``multiwp table`` run.  The seed is
    unused: the inputs are fixed."""

    name = "relation-rank"
    unit_s = 20.0
    calibration = staticmethod(interpreter_loop)
    cal_nominal_s = 1.2e-3

    def __init__(self, seed: int):
        # Every lru_cache of the package, cleared before each pass.  Taken
        # now, before a tracer can replace the cached functions.
        seen = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "multiwp" or mod_name.startswith("multiwp."):
                for obj in vars(mod).values():
                    if hasattr(obj, "cache_clear"):
                        seen[id(obj)] = obj
        self.caches = list(seen.values())

    def rank(self, weight: int, tick) -> bool:
        relations = _lib("relations")
        mat = relations.RelationMatrix(weight)
        for row in relations.relation_rows(weight):
            mat.add(row)
            tick()
        return mat.rank == PAPER_REL_ANTI[weight]

    def units(self):
        while True:
            for c in self.caches:
                c.cache_clear()
            yield [lambda tick, w=w: self.rank(w, tick) for w in sorted(PAPER_REL_ANTI)]


WORKLOADS = {wl.name: wl for wl in (LatticeCheck, QexpCheck, RelationRank)}

"""Spans at the module boundaries of multiwp, recorded from outside the program.

A Tracer replaces each boundary function below at every name it is bound
under in the ``multiwp`` modules (functions are imported by name into other
modules, e.g. ``ordered_sum`` into ``multip`` and ``meisen``), and each
boundary method on its class.  Every call becomes a span with a parent link;
a span's self time is its duration minus the time its child spans cover.
Counts (points swept, distinct keys, rows, useful rows) are taken from the
arguments and results at the same boundaries.  ``uninstall`` restores the
original objects.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array


def _lattice_key(tau, M, N):
    return (complex(tau), M, N)


def _mzv_key(index, digits=12):
    return (tuple(index), int(digits))


def _qexp_key(index, tau, q_order=64, digits=12):
    return (tuple(index), complex(tau), int(q_order), int(digits))


# (module, qualified name, key function for the distinct-argument count)
BOUNDARIES = (
    ("kernels", "ordered_sum", None),
    ("kernels", "lattice_sorted", _lattice_key),
    ("kernels", "kahan_cumsum", None),
    ("weier", "wp_k", None),
    ("weier", "eisenstein_G", None),
    ("mzv", "mzv", _mzv_key),
    ("meisen", "meis_qexp", _qexp_key),
    ("meisen", "multitangent_reduce", None),
    ("meisen", "MultitangentReduction.coefficients", None),
    ("multip", "multiwp_direct", None),
    ("multip", "multiwp_reduce", None),
    ("multip", "ReducedForm.evaluate", None),
    ("relations", "relation_rows", None),
    ("relations", "RelationMatrix.add", None),
    ("relations", "antipode_relation", None),
    ("relations", "SymbolicCombination.stuffle_mul", None),
    ("relations", "combination_residual", None),
    ("core", "stuffle", None),
)
GENERATORS = {"relations.relation_rows"}

# Raw spans beyond this many are aggregated but not kept, so that a traced
# run of the mzv-heavy workload stays small in memory and on disk.
MAX_KEPT_SPANS = 50_000


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "multiwp" or n.startswith("multiwp."))]


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual, _ in BOUNDARIES]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.keys = [set() if key else None for _, _, key in BOUNDARIES]
        self.active = [0] * n
        self.top_s = 0.0            # time covered by spans without a parent
        self.points = 0             # ordered_sum: region length x depth
        self.sums_in_direct = 0     # ordered_sum calls under multiwp_direct
        self.rows = 0               # rows yielded by relation_rows
        self.useful_rows = 0        # RelationMatrix.add calls that raised the rank
        self.check = -1             # id of the check the spans belong to
        self.spans_total = 0
        self._stack: list = []
        self._kept = {c: array(t) for c, t in
                      (("id", "q"), ("parent", "q"), ("name", "h"), ("check", "q"),
                       ("start_us", "d"), ("end_us", "d"))}
        self._t_origin = None
        self._direct = self.names.index("multip.multiwp_direct")
        self._patches: list = []

    # -- spans ------------------------------------------------------------
    def _enter(self, k):
        sid = self.spans_total
        self.spans_total += 1
        self.calls[k] += 1
        self.active[k] += 1
        self._stack.append([sid, 0.0])
        return time.perf_counter()

    def _exit(self, k, t0):
        t1 = time.perf_counter()
        sid, child = self._stack.pop()
        self.active[k] -= 1
        dur = t1 - t0
        self.self_s[k] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            pid = parent[0]
        else:
            self.top_s += dur
            pid = -1
        if sid < MAX_KEPT_SPANS:
            if self._t_origin is None:
                self._t_origin = t0
            kept = self._kept
            kept["id"].append(sid)
            kept["parent"].append(pid)
            kept["name"].append(k)
            kept["check"].append(self.check)
            kept["start_us"].append(round(1e6 * (t0 - self._t_origin), 1))
            kept["end_us"].append(round(1e6 * (t1 - self._t_origin), 1))

    # -- counters taken at the boundaries -----------------------------------
    def _count_points(self, a):
        self.points += len(a[0]) * len(a[2])      # region length x depth
        if self.active[self._direct]:
            self.sums_in_direct += 1

    def _count_useful(self, added):
        if added:
            self.useful_rows += 1

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, k):
        name = self.names[k]
        enter, exit_ = self._enter, self._exit
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*a, **kw):
                it = fn(*a, **kw)
                end = object()
                while True:
                    t0 = enter(k)
                    try:
                        item = next(it, end)
                    finally:
                        exit_(k, t0)
                    if item is end:
                        return
                    self.rows += 1
                    yield item
            return gen_wrapper

        key, keys = BOUNDARIES[k][2], self.keys[k]
        before = self._count_points if name == "kernels.ordered_sum" else None
        after = self._count_useful if name == "relations.RelationMatrix.add" else None

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if keys is not None:
                keys.add(key(*a, **kw))
            if before is not None:
                before(a)
            t0 = enter(k)
            try:
                out = fn(*a, **kw)
            finally:
                exit_(k, t0)
            if after is not None:
                after(out)
            return out
        return wrapper

    def install(self):
        """Wrap every boundary at each of its bindings."""
        mods = _package_modules()
        for k, (mod, qual, _) in enumerate(BOUNDARIES):
            owner = sys.modules[f"multiwp.{mod}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, k))
                continue
            orig = getattr(owner, qual)
            wrapped = self._wrap(orig, k)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def metrics(self, wall_s: float, checks: int) -> dict:
        """Per-layer metrics, each as (value, unit)."""
        ix = {n: i for i, n in enumerate(self.names)}
        out = {}
        for n, i in ix.items():
            out[f"{n}.calls"] = (self.calls[i], "count")
            out[f"{n}.self_s"] = (self.self_s[i], "s")
            if self.keys[i] is not None:
                out[f"{n}.distinct"] = (len(self.keys[i]), "count")

        def ratio(a, b):
            return a / b if b else 0.0

        os_ = ix["kernels.ordered_sum"]
        lat = ix["kernels.lattice_sorted"]
        out["kernels.ordered_sum.points"] = (self.points, "count")
        out["kernels.ordered_sum.mpts_per_s"] = (
            ratio(self.points / 1e6, self.self_s[os_]), "Mpts/s")
        out["kernels.lattice_sorted.reuse_ratio"] = (
            1.0 - ratio(len(self.keys[lat]), self.calls[lat]) if self.calls[lat] else 0.0,
            "ratio")
        out["multip.multiwp_direct.ordered_sum_per_call"] = (
            ratio(self.sums_in_direct, self.calls[ix["multip.multiwp_direct"]]), "count")
        out["relations.relation_rows.rows"] = (self.rows, "count")
        out["relations.useful_ratio"] = (ratio(self.useful_rows, self.rows), "ratio")
        out["bench.unspanned_s"] = (wall_s - self.top_s, "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.checks"] = (checks, "count")
        out["trace.spans"] = (self.spans_total, "count")
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as columns, with the boundary names; times
        are microseconds from the start of the first span."""
        doc = {"names": self.names, "total": self.spans_total,
               "kept": len(self._kept["id"]),
               "columns": {c: list(v) for c, v in self._kept.items()}}
        with open(path, "w") as fh:
            json.dump(doc, fh)

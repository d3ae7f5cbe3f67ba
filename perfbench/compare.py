#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced result files (``*-trace0.json``) that
run.py wrote to perfbench/results/ for one commit, copied aside.  For each
workload and each end-to-end metric of BENCHMARK.json it prints the median
and quartiles of both sides and the change of the medians against the
metric's bound.  Results whose kernel path differs (numba against numpy)
measure different code, and runs of different lengths measure different
work, so such comparisons are refused.  Exit status: 0 when
no metric is worse than its bound, 1 when one is, 2 when refused.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory) -> dict:
    out: dict = {}
    for f in sorted(Path(directory).glob("*-trace0.json")):
        res = json.loads(f.read_text())
        out.setdefault(res["workload"], []).append(res)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    results = [r for side in (base, new) for runs in side.values() for r in runs]
    paths = {r["env"]["kernel_path"] for r in results}
    if len(paths) != 1:
        print(f"refused: the results use kernel paths {sorted(paths)}")
        return 2
    lengths = {r["seconds"] for r in results}
    if len(lengths) != 1:
        print(f"refused: the runs measured for different lengths {sorted(lengths)} s")
        return 2
    for key in ("python", "numpy", "nproc", "blas_threads"):
        seen = {str(r["env"][key]) for r in results}
        if len(seen) > 1:
            print(f"note: {key} differs between results: {sorted(seen)}")
    worse = 0
    for wl in sorted(base.keys() & new.keys()):
        b_runs, n_runs = base[wl], new[wl]
        print(f"{wl}: {len(b_runs)} base runs, {len(n_runs)} new runs; failed "
              f"{sum(r['failed'] for r in b_runs)}/{sum(r['attempted'] for r in b_runs)} -> "
              f"{sum(r['failed'] for r in n_runs)}/{sum(r['attempted'] for r in n_runs)}")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            bq = quartiles([r["metrics"][name]["value"] for r in b_runs])
            nq = quartiles([r["metrics"][name]["value"] for r in n_runs])
            change = (nq[1] - bq[1]) / bq[1]
            loss = change if m["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if loss > m["bound"]:
                verdict, worse = "WORSE", worse + 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"  {name:16} {bq[1]:11.4g} [{bq[0]:.4g}, {bq[2]:.4g}] -> "
                  f"{nq[1]:11.4g} [{nq[0]:.4g}, {nq[2]:.4g}] {m['unit']:9} "
                  f"{100 * change:+6.1f}%  bound {100 * m['bound']:.0f}%  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

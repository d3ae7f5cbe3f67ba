#!/usr/bin/env python3
"""Benchmark of the multiwp verification engine.

    python3 perfbench/run.py --workload lattice-check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one fresh single-threaded process acting as one closed-loop
client: it sends the next check only after the previous one returned.  The
package's caches start cold, as in every ``multiwp`` CLI run, and filling
them is timed.  ``--trace 0`` measures the end-to-end metrics for
``--seconds`` (whole units of work: a batch, a check, a pass); ``--trace 1``
wraps the module boundaries (see spans.py) and runs a fixed amount of work
sized from ``--seconds``, so its counts repeat exactly for one seed.
``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every metric with its unit and the tracing overhead.
Times in the end-to-end metrics are scaled to the speed of a reference
machine (see SpeedProbe); the raw ones are kept in the result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment record, is written to perfbench/results/.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The q-pipeline multiplies small matrices with numpy; one BLAS thread keeps
# the run single-threaded.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 6          # extra fresh-process set-ups per run, for the median
SETUP_CAL_SAMPLES = 9
CHILD_TIMEOUT_S = 170
CAL_EVERY_S = 0.05

sys.path.insert(0, str(ROOT / "src"))


class SpeedProbe:
    """Times a workload's calibration loop between checks, and between the
    steps of a long check.

    The shared host runs this process up to 40% slower in some minutes than
    in others, for the program and the calibration loop alike.  Each stretch
    of a check's time is scaled by the loop's nominal time over the mean of
    the loop times just before and just after that stretch, which cancels
    most of the swing; the raw wall figures are kept in the result file.
    """

    def __init__(self, loop, nominal_s: float):
        self.loop, self.nominal_s = loop, nominal_s
        self.samples: list[float] = []
        self.spent = 0.0                # wall time spent calibrating
        self._last = float("-inf")
        self._stretches: list = []      # (seconds, index of the sample before)
        self._since = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def start(self) -> None:
        """Start timing a check, calibrating first if a sample is due."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()
        self._stretches = []
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Within a check: calibrate if due, outside the check's time."""
        now = time.perf_counter()
        if now - self._last >= CAL_EVERY_S:
            self._stretches.append((now - self._since, len(self.samples) - 1))
            self.sample()
            self._since = time.perf_counter()

    def stop(self) -> list:
        """End the check; its stretches of raw time."""
        self._stretches.append((time.perf_counter() - self._since, len(self.samples) - 1))
        return self._stretches

    def scaled(self, stretches) -> float:
        """Sum of the stretches, each scaled to the nominal speed."""
        total = 0.0
        for seconds, k in stretches:
            pair = self.samples[k:k + 2]
            total += seconds * self.nominal_s * len(pair) / sum(pair)
        return total


def scaled_setup_s(wl) -> float:
    """Set-up time of this process so far, scaled to the nominal speed."""
    raw = time.perf_counter() - T_START
    probe = SpeedProbe(wl.calibration, wl.cal_nominal_s)
    for _ in range(SETUP_CAL_SAMPLES):
        probe.sample()
    return raw * wl.cal_nominal_s / statistics.median(probe.samples)


def setup(workload: str, seed: int):
    """Import the package from this checkout and build the workload inputs."""
    import multiwp
    if ROOT / "src" not in Path(multiwp.__file__).resolve().parents:
        raise SystemExit(f"multiwp imported from {multiwp.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS
    return WORKLOADS[workload](seed)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    kernels = sys.modules["multiwp.kernels"]
    using_numba = bool(getattr(kernels, "USING_NUMBA", False))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_path": "numba" if using_numba else "numpy",
        "USING_NUMBA": using_numba,
        "MULTIWP_PURE_NUMPY": os.environ.get("MULTIWP_PURE_NUMPY", ""),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def measure(units, tracer, speed, seconds: float, n_units: int | None):
    """Run whole units until ``seconds`` have passed, or ``n_units`` of them.

    Returns per-check raw and scaled times, the unit of each check, the
    failures, and the wall time without calibration.
    """
    raw, stretches, unit_of, failures = [], [], [], []
    t_start = time.perf_counter()
    for done, unit in enumerate(units, 1):
        for check in unit:
            if tracer is not None:
                tracer.check = len(raw)
            unit_of.append(done - 1)
            speed.start()
            try:
                ok = check(speed.tick)
                why = "result outside tolerance"
            except Exception as exc:  # a check that raises is a failed check
                ok, why = False, f"{type(exc).__name__}: {exc}"
            stretches.append(speed.stop())
            raw.append(sum(t for t, _ in stretches[-1]))
            if not ok:
                failures.append(f"check {len(raw) - 1}: {why}")
        if n_units is not None:
            if done >= n_units:
                break
        elif time.perf_counter() - t_start - speed.spent >= seconds:
            break
    speed.sample()
    wall = time.perf_counter() - t_start - speed.spent
    return raw, [speed.scaled(s) for s in stretches], unit_of, failures, wall


def quantiles_ms(seconds) -> tuple[float, float]:
    """(median, p90) in ms; p90 by statistics.quantiles, inclusive."""
    ms = sorted(1e3 * t for t in seconds)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def run(args) -> dict:
    wl = setup(args.workload, args.seed)
    setup_s = [scaled_setup_s(wl)]
    setup_s += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    env = environment()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        n_units = max(1, round(args.seconds / wl.unit_s)) if args.trace else None
        lat, scaled, unit_of, failures, wall = measure(
            wl.units(), tracer, SpeedProbe(wl.calibration, wl.cal_nominal_s),
            args.seconds, n_units)
    finally:
        if tracer is not None:
            tracer.uninstall()
    unit_s = [0.0] * (unit_of[-1] + 1)
    for u, t in zip(unit_of, scaled):
        unit_s[u] += t

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracer.metrics(wall, len(lat))
        metrics["trace.speed_scale"] = (sum(scaled) / sum(lat), "ratio")
        tracer.write_spans(f"{stem}.spans.json")
    else:
        p50, p90 = quantiles_ms(scaled)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "checks_per_s": (len(lat) / sum(scaled), "checks/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    raw_p50, raw_p90 = quantiles_ms(lat)
    info = {
        "checks": len(lat),
        "units": len(unit_s),
        "wall_s": wall,
        "fail_ratio": len(failures) / len(lat),
        "unit_s_median": statistics.median(unit_s),
        "speed_scale": sum(scaled) / sum(lat),
        "raw_checks_per_s": len(lat) / wall,
        "raw_latency_p50_ms": raw_p50,
        "raw_latency_p90_ms": raw_p90,
        "checks_beyond_p90": sum(t > 1e-3 * metrics["latency_p90_ms"][0] for t in scaled)
        if not args.trace else None,
        "setup_s_samples": setup_s,
    }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "info": info, "failures": failures[:20],
        "latencies_ms": [1e3 * t for t in lat],
        "scaled_latencies_ms": [1e3 * t for t in scaled],
        "correct": not failures, "attempted": len(lat), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def report(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    info = result["info"]
    print(f"  checks {info['checks']} in {info['units']} units, {info['wall_s']:.2f} s; "
          f"failed {result['failed']} (fail_ratio {info['fail_ratio']:.4f} failed/attempted)")
    print(f"  speed scale {info['speed_scale']:.3f}; unscaled: {info['raw_checks_per_s']:.4g} "
          f"checks/s, p50 {info['raw_latency_p50_ms']:.4g} ms, p90 {info['raw_latency_p90_ms']:.4g} ms")
    if result["workload"] == "relation-rank" and not result["trace"]:
        print(f"  rank_wall_s {info['unit_s_median']:.3f} s (median pass over weights 12-15)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    for k, m in result["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> dict:
    """Every workload, untraced then traced, each run in a fresh process."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
            print(proc.stdout.rstrip().rsplit("\n", 1)[0])
            res[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= res[trace]["correct"]
            combined["attempted"] += res[trace]["attempted"]
            combined["failed"] += res[trace]["failed"]
            for k, m in res[trace]["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = m
        traced = res[1]["metrics"]
        per_check = (traced["trace.wall_s"]["value"] * traced["trace.speed_scale"]["value"]
                     / traced["trace.checks"]["value"])
        overhead = per_check * res[0]["metrics"]["checks_per_s"]["value"] - 1.0
        print(f"  tracing overhead on {name}: {100 * overhead:+.1f}% per check "
              f"(traced {1e3 * per_check:.2f} ms vs untraced "
              f"{1e3 / res[0]['metrics']['checks_per_s']['value']:.2f} ms)\n")
    return combined


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(scaled_setup_s(setup(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result = run(args)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: evaluate, reduce, q-expand, verify, relations, table.

Numbers print with full precision; json reports re-parse to the same values.
Each subcommand takes only the flags it reads, and `eval` only the inputs
its --fn reads.  Exit status: 0 ok, 1 tolerance failure in verify, 2 an
argument error, an input outside a route's domain, or a series that does
not converge (ArithmeticError, which covers ConvergenceError).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .core import EvalConfig, Index, compositions_ge2
from . import meisen, multip, relations, verify, weier
from .mzv import mzv as mzv_value_of


def parse_complex(s: str) -> complex:
    """Parse 'a+bi' with decimal or p/q components; also 'i', '2i', '0.3'."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")

    def num(t: str) -> float:
        if "/" in t:
            return float(Fraction(t))
        return float(t)

    # split off an imaginary part ending in i/j at the last top-level +/-
    if s[-1] in "ij":
        body = s[:-1]
        # split into real + imag at the last +/- not at position 0 and not in a fraction
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = num(im_part)
        return complex(num(re_part) if re_part else 0.0, im)
    return complex(num(s), 0.0)


def parse_index(s: str) -> Index:
    s = s.strip()
    if not s or s == "-":
        return Index(())
    return Index(int(p) for p in s.replace(" ", "").split(","))


def _cnum(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g}{v.imag:+.15g}i"
    return f"{v:.15g}"


def _emit(args, report: dict) -> None:
    fmt = args.format
    if fmt == "json":
        print(json.dumps(report, indent=2, default=str))
        return
    if fmt == "csv":
        rows = report.get("outputs", [])
        if rows and isinstance(rows[0], dict):
            buf = io.StringIO()
            wr = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            wr.writeheader()
            wr.writerows(rows)
            print(buf.getvalue(), end="")
        else:
            print("\n".join(str(r) for r in rows))
        return
    for row in report.get("outputs", []):
        if isinstance(row, dict):
            print("  ".join(f"{k}={v}" for k, v in row.items()))
        else:
            print(row)
    for row in report.get("residuals", []):
        print(row)


# the inputs each --fn reads, required then optional; wpk and eisenstein take
# a one-part --index, and --tau is i where it is read and not given
_EVAL_READS = {"multiwp": ("index z", "tau M N"), "meis-direct": ("index", "tau M N"),
               "meis": ("index", "tau"), "eisenstein": ("index", "tau"), "mzv": ("index", ""),
               "wpk": ("index z", "tau"), "wp": ("z", "tau"), "sigma": ("z", "tau"),
               "zeta": ("z", "tau")}
_FLAGS = {"index": "--index", "z": "--z", "tau": "--tau", "M": "-M", "N": "-N"}


def cmd_eval(args) -> int:
    fn = args.fn
    needs, takes = (names.split() for names in _EVAL_READS[fn])
    for name in needs:
        if not getattr(args, name):
            raise ValueError(f"--fn {fn} needs {_FLAGS[name]}")
    for name, flag in _FLAGS.items():
        if getattr(args, name) is not None and name not in needs + takes:
            raise ValueError(f"--fn {fn} does not read {flag}")
    index = parse_index(args.index) if args.index else None
    if fn in ("wpk", "eisenstein") and len(index) != 1:
        raise ValueError(f"--fn {fn} takes a single part in --index, got {args.index!r}")
    tau = parse_complex("i" if args.tau is None else args.tau) if "tau" in takes else None
    cfg = EvalConfig(**{k: getattr(args, k) for k in ("M", "N") if getattr(args, k) is not None})
    z = parse_complex(args.z) if args.z else None
    swept = {}  # a direct lattice sum's truncation and error estimate
    if fn == "multiwp":
        val = multip.multiwp_direct(index, z, tau, cfg)
        above, below = ((meisen.tilde_rows(xs, tau, cfg.M) if index.depth else 0)
                        for _, xs in multip._split_chains(index, [z] * index.depth))
        swept["truncation"] = {"rows_above_0": above, "rows_below_0": below,
                               "N": [cfg.N, 2 * cfg.N, 4 * cfg.N]}
    elif fn == "meis":
        val = meisen.meis_qexp(index, tau)
    elif fn == "meis-direct":
        val, est = meisen.meis_direct_error(index, tau, cfg)
        rows = meisen.tilde_rows([0.0] * index.depth, tau, cfg.M) if index.depth else 0
        swept["truncation"] = {"rows": rows, "N": [cfg.N, 2 * cfg.N, 4 * cfg.N]}
        swept["error_estimate"] = est
    elif fn == "wpk":
        val = weier.wp_k(index[0], z, tau)
    elif fn == "wp":
        val = weier.wp(z, tau)
    elif fn == "sigma":
        val = weier.sigma(z, tau)
    elif fn == "zeta":
        val = weier.weier_zeta(z, tau)
    elif fn == "eisenstein":
        val = weier.eisenstein_G(index[0], tau)
    else:  # mzv
        val = mzv_value_of(index).value
    report = {
        "command": "eval",
        "inputs": {"fn": fn, "index": list(index) if index else None,
                   "z": _cnum(z) if z is not None else None,
                   "tau": _cnum(tau) if tau is not None else None},
        "outputs": [{"value": _cnum(val),
                     "re": repr(complex(val).real), "im": repr(complex(val).imag)}],
        "residuals": [],
        "status": "ok",
        **swept,
    }
    _emit(args, report)
    return 0


def cmd_reduce(args) -> int:
    index = parse_index(args.index)
    rf = multip.multiwp_reduce(index)
    outputs = []
    for n, _ in rf.wp_terms:
        comb = rf.coeff_combination(n)
        row = {"wp_n": n,
               "coeff_symbols": " + ".join(f"({c})*Gt{tuple(ix)}" for ix, c in sorted(comb.items()))}
        if args.tau:
            row["coeff_value"] = _cnum(rf.coeff_value(n, parse_complex(args.tau)))
        outputs.append(row)
    comb = rf.const_combination()
    row = {"wp_n": 0,
           "coeff_symbols": " + ".join(f"({c})*Gt{tuple(ix)}" for ix, c in sorted(comb.items()))}
    if args.tau:
        row["coeff_value"] = _cnum(rf.const_value(parse_complex(args.tau)))
    outputs.append(row)
    report = {"command": "reduce", "inputs": {"index": list(index), "tau": args.tau},
              "outputs": outputs, "residuals": [], "status": "ok"}
    _emit(args, report)
    return 0


def cmd_qexp(args) -> int:
    index = parse_index(args.index)
    tau = parse_complex(args.tau)
    val = meisen.meis_qexp(index, tau)
    const = mzv_value_of(index)
    report = {
        "command": "qexp",
        "inputs": {"index": list(index), "tau": _cnum(tau)},
        "outputs": [{"value": _cnum(val), "constant_term": _cnum(const.value),
                     "constant_term_err": const.err}],
        "residuals": [],
        "status": "ok",
    }
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    kw = {"seed": args.seed}
    if args.max_weight:
        kw["max_weight"] = args.max_weight
    checks = verify.run_suite(args.suite, **kw)
    failed = [c for c in checks if not c.passed]
    outputs = [c.to_dict() for c in checks]
    report = {
        "command": "verify",
        "inputs": {"suite": args.suite, "seed": args.seed},
        "outputs": outputs,
        "residuals": [f"{c.name}: residual={c.residual:.3g} tol={c.tol:.3g} "
                      f"{'PASS' if c.passed else 'FAIL'}" for c in checks],
        "status": "ok" if not failed else "fail",
    }
    if args.format == "text":
        for line in report["residuals"]:
            print(line)
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    else:
        _emit(args, report)
    return 0 if not failed else 1


def cmd_relations(args) -> int:
    w = args.weight
    rows = []
    for src in compositions_ge2(w + 1):
        rel = relations.antipode_relation(src)
        if rel:
            rows.append({"source": ",".join(map(str, src)), "relation": repr(rel)})
    rank = relations.relation_rank(w)
    report = {
        "command": "relations",
        "inputs": {"weight": w},
        "outputs": rows + [{"source": "rank", "relation": str(rank)}],
        "residuals": [],
        "status": "ok",
    }
    _emit(args, report)
    return 0


def cmd_table(args) -> int:
    rows = relations.relation_table(args.max_weight)
    report = {"command": "table", "inputs": {"max_weight": args.max_weight},
              "outputs": rows, "residuals": [], "status": "ok"}
    if args.format == "text":
        cols = list(rows[0].keys())
        print("  ".join(f"{c:>9}" for c in cols))
        for r in rows:
            print("  ".join(f"{r[c]:>9}" for c in cols))
    else:
        _emit(args, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multiwp",
                                description="multiple Weierstrass p-functions, "
                                            "multiple Eisenstein series, and their relations")
    shared = argparse.ArgumentParser(add_help=False)  # what every subcommand takes
    shared.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=lambda **kw:
                           argparse.ArgumentParser(parents=[shared], **kw))

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("--fn", required=True,
                    choices=["multiwp", "meis", "meis-direct", "wpk", "wp",
                             "sigma", "zeta", "eisenstein", "mzv"])
    pe.add_argument("--index", default=None, help="comma-separated parts, e.g. 2,3")
    pe.add_argument("--z", default=None)
    pe.add_argument("--tau", default=None, help="default i")
    pe.add_argument("-M", type=int, default=None, help="row cap of a direct lattice sum")
    pe.add_argument("-N", type=int, default=None, help="first Richardson level of one")
    pe.set_defaults(run=cmd_eval)

    pr = sub.add_parser("reduce", help="reduce a multiple wp-function to single wp_n's")
    pr.add_argument("--index", required=True)
    pr.add_argument("--tau", default=None, help="also evaluate coefficients at tau")
    pr.set_defaults(run=cmd_reduce)

    pq = sub.add_parser("qexp", help="multiple Eisenstein series via the q-expansion")
    pq.add_argument("--index", required=True)
    pq.add_argument("--tau", default="i")
    pq.set_defaults(run=cmd_qexp)

    pv = sub.add_parser("verify", help="run identity verification suites")
    pv.add_argument("--suite", default="all",
                    choices=sorted(verify.SUITES) + ["all"])
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--max-weight", type=int, default=None)
    pv.set_defaults(run=cmd_verify)

    pl = sub.add_parser("relations", help="antipode relations and the exact rank in one weight")
    pl.add_argument("--weight", type=int, required=True)
    pl.set_defaults(run=cmd_relations)

    pt = sub.add_parser("table", help="reproduce the relation-count table")
    pt.add_argument("--max-weight", type=int, default=12)
    pt.set_defaults(run=cmd_table)
    # argparse prints the usage above each error, so the hint is seen when a
    # flag comes before the subcommand and is taken for one
    p.usage = (p.format_usage().removeprefix("usage: ").rstrip()
               + "\n       flags go after the subcommand, e.g. multiwp table --format json")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiwp
from multiwp.cli import build_parser, main, parse_complex, parse_index
from multiwp import meisen, verify
from multiwp.core import EvalConfig, Index, compositions_ge2
from multiwp.relations import antipode_relation


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_complex():
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
    assert parse_complex("1/2+2i") == 0.5 + 2j
    assert parse_complex("-0.4-1.5j") == -0.4 - 1.5j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("1e-2+2e-1i") == 0.01 + 0.2j
    with pytest.raises(ValueError):
        parse_complex("")


def test_parse_index():
    assert parse_index("2,3") == Index((2, 3))
    assert parse_index("-") == Index(())
    with pytest.raises(ValueError):
        parse_index("2,0")


def test_eval_reduce_cross_command(capsys):
    # eval and reduce agree at the same point (coarse settings for speed)
    code, out = run_cli(["eval", "--fn", "multiwp", "--index", "2,2",
                         "--z", "0.3+0.2i", "--tau", "i",
                         "-M", "12", "-N", "2000", "--format", "json"], capsys)
    assert code == 0
    val = json.loads(out)["outputs"][0]
    direct = complex(float(val["re"]), float(val["im"]))

    code, out = run_cli(["reduce", "--index", "2,2", "--tau", "i",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["outputs"]
    from multiwp.weier import wp_k
    total = 0j
    for row in rows:
        c = parse_complex(row["coeff_value"])
        n = row["wp_n"]
        total += c * (wp_k(n, 0.3 + 0.2j, 1j) if n else 1.0)
    assert abs(total - direct) < 1e-6


def test_eval_reports_the_truncation_it_swept(capsys):
    # multiwp: rows on each side of 0 from tau and Im z, under the cap M
    base = ["eval", "--fn", "multiwp", "--index", "2,2", "--z", "0.3+0.9i", "--tau", "2i",
            "-N", "500", "--format", "json"]
    for M, rows in (("12", (5, 4)), ("4", (4, 4))):
        code, out = run_cli(base + ["-M", M], capsys)
        assert code == 0
        assert json.loads(out)["truncation"] == {
            "rows_above_0": rows[0], "rows_below_0": rows[1], "N": [500, 1000, 2000]}
    # meis-direct: the one sweep's rows, capped by M, and its three levels
    code, out = run_cli(["eval", "--fn", "meis-direct", "--index", "2,3", "--tau", "0.3+1.1i",
                         "-M", "3", "-N", "100", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["truncation"] == {"rows": 3, "N": [100, 200, 400]}
    est = meisen.meis_direct_error((2, 3), 0.3 + 1.1j, EvalConfig(M=3, N=100))[1]
    assert report["error_estimate"] == est > 0
    # N below the default M: M only caps the rows, and tau = i takes 8 of them
    code, out = run_cli(["eval", "--fn", "multiwp", "--index", "2,2", "--z", "0.3+0.2i",
                         "--tau", "i", "-N", "50", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["truncation"] == {
        "rows_above_0": 8, "rows_below_0": 8, "N": [50, 100, 200]}
    # a route without a lattice sum reports none
    code, out = run_cli(["eval", "--fn", "meis", "--index", "2,3", "--format", "json"], capsys)
    assert code == 0 and "truncation" not in out and "error_estimate" not in out


def test_eval_meis_direct_of_the_empty_index(capsys):
    # no lattice rows are swept, as for --fn multiwp
    code, out = run_cli(["eval", "--fn", "meis-direct", "--index", "-", "--format", "json"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["outputs"][0]["value"] == "1+0i"
    assert report["truncation"]["rows"] == 0
    assert report["error_estimate"] == 0.0


def test_table_csv(capsys):
    code, out = run_cli(["table", "--max-weight", "6", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,dim_conj,rel_conj,rel_anti,deficit"
    assert lines[-1] == "6,4,1,1,0"


def test_table_json_exact_ranks_to_weight_14(capsys):
    code, out = run_cli(["table", "--max-weight", "14", "--format", "json"], capsys)
    assert code == 0
    rows = {r["weight"]: r for r in json.loads(out)["outputs"]}
    assert [rows[w]["rel_anti"] for w in (12, 13, 14)] == [40, 62, 115]
    assert [rows[w]["deficit"] for w in (12, 13, 14)] == [2, 12, 14]


def test_relations_weight_13_rank(capsys):
    code, out = run_cli(["relations", "--weight", "13", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"][-1] == {"source": "rank", "relation": "62"}
    assert len(rep["outputs"]) == 1 + sum(
        1 for src in compositions_ge2(14) if antipode_relation(src))


def test_qexp_json_roundtrip(capsys):
    code, out = run_cli(["qexp", "--index", "2,3", "--tau", "2i",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "ok"
    v = parse_complex(rep["outputs"][0]["value"])
    from multiwp.meisen import meis_qexp
    assert abs(v - meis_qexp((2, 3), 2j)) < 1e-12


def test_verify_exit_codes(capsys):
    code, out = run_cli(["verify", "--suite", "depth-one"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_run_suite_rejects_a_keyword_no_suite_takes():
    for kw in ({"bogus": 1}, {"tol_legendre": 1e-30}):
        for suite in ("depth-one", "all"):
            with pytest.raises(TypeError, match="no suite takes"):
                verify.run_suite(suite, **kw)
    # a keyword that only other suites take is left out of this one's call
    assert len(verify.run_suite("depth-one", seed=0, max_weight=8)) == len(
        verify.run_suite("depth-one"))


def test_bad_arguments_exit_2(capsys):
    code = main(["eval", "--fn", "multiwp", "--index", "2,0",
                 "--z", "0.3+0.2i", "--tau", "i"])
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["--fn", "wpk", "--z", "0.3"], "--fn wpk needs --index"),
    (["--fn", "multiwp", "--z", "0.3"], "--fn multiwp needs --index"),
    (["--fn", "eisenstein"], "--fn eisenstein needs --index"),
    (["--fn", "mzv"], "--fn mzv needs --index"),
    (["--fn", "meis"], "--fn meis needs --index"),
    (["--fn", "wp"], "--fn wp needs --z"),
    (["--fn", "multiwp", "--index", "2,2"], "--fn multiwp needs --z"),
    (["--fn", "wpk", "--index", "2,3", "--z", "0.3"], "--fn wpk takes a single part"),
    (["--fn", "eisenstein", "--index", "4,6"], "--fn eisenstein takes a single part"),
])
def test_eval_missing_input_exits_2(capsys, args, message):
    assert main(["eval"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_seeded_determinism(capsys):
    args = ["verify", "--suite", "repeated-index", "--seed", "11", "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    r1 = [c["residual"] for c in json.loads(out1)["outputs"]]
    r2 = [c["residual"] for c in json.loads(out2)["outputs"]]
    assert r1 == r2


def test_console_entrypoint():
    # the child process imports the same multiwp tree as this one
    src = str(Path(multiwp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "multiwp.cli", "table",
                           "--max-weight", "4"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "weight" in proc.stdout


def _options(parser):
    return {opt for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _options(parser) == set()
    assert {cmd: _options(p) for cmd, p in sub.choices.items()} == {
        "eval": {"--fn", "--index", "--z", "--tau", "-M", "-N", "--format"},
        "reduce": {"--index", "--tau", "--format"},
        "qexp": {"--index", "--tau", "--format"},
        "verify": {"--suite", "--seed", "--max-weight", "--format"},
        "relations": {"--weight", "--format"},
        "table": {"--max-weight", "--format"},
    }


@pytest.mark.parametrize("argv", [
    ["table", "--max-weight", "4", "-N", "1"],
    ["relations", "--weight", "6", "--seed", "3"],
    ["qexp", "--index", "2", "-M", "12"],
    ["verify", "--suite", "depth-one", "-N", "100"],
    ["eval", "--fn", "mzv", "--index", "2", "--tol", "1e-9"],
    ["eval", "--fn", "mzv", "--index", "2", "--config", "f"],
    ["--format", "json", "table", "--max-weight", "4"],
])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--fn", "mzv", "--index", "2,3", "--z", "0.3"], "--fn mzv does not read --z"),
    (["--fn", "wp", "--index", "2", "--z", "0.3"], "--fn wp does not read --index"),
    (["--fn", "sigma", "--z", "0.3", "-M", "12"], "--fn sigma does not read -M"),
    (["--fn", "mzv", "--index", "2,3", "--tau", "i"], "--fn mzv does not read --tau"),
])
def test_eval_input_its_fn_does_not_read_exits_2(capsys, args, message):
    assert main(["eval"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("args, route", [
    (["--fn", "eisenstein", "--index", "4", "--tau", "0.3+0.0005i"], "_g_even_qexp"),
    (["--fn", "wpk", "--index", "4", "--z", "0.3+0.002i", "--tau", "0.3+0.01i"], "_wp_k_rows"),
])
def test_eval_that_does_not_converge_exits_2(capsys, args, route):
    assert main(["eval"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and route in err


def test_a_flag_before_the_subcommand_gets_the_hint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "table"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'json'" in err
    assert "flags go after the subcommand, e.g. multiwp table --format json" in err


def test_removed_q_order_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--index", "2", "--q-order", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q-order" in capsys.readouterr().err

"""Command-line surface: JSON envelopes, CSV output, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import toruslink
from toruslink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_envelope_shape(capsys):
    doc = run_json(capsys, "invariant", "2", "3")
    assert doc["schema"] == 1
    assert doc["command"] == "invariant"
    assert doc["inputs"] == {"p": 2, "q": 3}
    res = doc["results"]
    assert res["coeffs"] == ["1", "-1", "1"]
    assert res["determinant"] == "3"
    assert res["multiplicities"] == {"6": 1}
    assert res["degree"] == 2
    colors = {c["ell"]: c["colorable"] for c in res["colorability"]}
    assert colors[3] is True and colors[2] is False


def test_invariant_link(capsys):
    doc = run_json(capsys, "invariant", "2", "4")
    assert doc["results"]["d"] == 2
    assert doc["results"]["multiplicities"] == {"1": 1, "4": 1}


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "scan", "40", "coprime", "[1/10,7/20]")
    _, out2, _ = run(capsys, "scan", "40", "coprime", "[1/10,7/20]")
    assert out1 == out2
    _, out3, _ = run(capsys, "tower", "2", "3", "--ell", "2", "--n", "3")
    _, out4, _ = run(capsys, "tower", "2", "3", "--ell", "2", "--n", "3")
    assert out3 == out4


def test_moments_payload(capsys):
    doc = run_json(capsys, "moments", "2", "3")
    res = doc["results"]
    assert res["values"] == [2, 1, -1, -2, -1, 1]
    assert res["mean"] == 0 and res["variance"] == 2
    assert res["parseval_gap"] < 1e-9
    assert [r["root"] for r in res["residues"]] == ["1/6", "5/6"]


def test_moments_link_error(capsys):
    code, out, err = run(capsys, "moments", "2", "4")
    assert code == 1
    assert err.startswith("error[LINK_CASE]")
    assert out == ""


def test_moments_csv(capsys):
    code, out, _ = run(capsys, "moments", "2", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,S_m"
    assert lines[1] == "0,2"
    assert len(lines) == 7


def test_scan_payload_and_per_pair(capsys, tmp_path):
    target = tmp_path / "pairs.csv"
    doc = run_json(capsys, "scan", "12", "all", "[0,1/2]", "--per-pair", str(target))
    res = doc["results"]
    assert res["predicted_ratio"] == "1/2"
    body = target.read_text().splitlines()
    assert body[0] == "p,q,d,roots_total,roots_in_arc"
    assert len(body) == 1 + 12 * 12
    # rows are exact integers and sum to the reported totals
    rows = [tuple(int(x) for x in line.split(",")) for line in body[1:]]
    assert sum(r[3] for r in rows) == res["omega_count"]
    assert sum(r[4] for r in rows) == res["arc_count"]


def test_scan_csv_stdout(capsys):
    code, out, _ = run(capsys, "scan", "6", "coprime", "[0,1]", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,d,roots_total,roots_in_arc"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_scan_freq(capsys):
    doc = run_json(capsys, "scan", "200", "coprime", "--freq", "6")
    res = doc["results"]
    assert res["frequency"] == "4000/24463"
    assert res["limit"] == "1/6"


def test_scan_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "30", "all", "[1/10,7/20]", "--jobs", "4"])
    assert exc.value.code == 2


def test_cli_import_starts_no_process_machinery():
    """Importing the CLI pulls in neither multiprocessing nor the process
    pool, which scan no longer uses."""
    code = (
        "import sys, toruslink.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(toruslink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scan_rejects_floats(capsys):
    code, _, err = run(capsys, "scan", "30", "coprime", "[0.1,0.5]")
    assert code == 2
    assert err.startswith("error[USAGE]")


def test_scan_needs_arc_or_freq(capsys):
    code, _, err = run(capsys, "scan", "30", "coprime")
    assert code == 2


def test_tower_knot_payload(capsys):
    doc = run_json(capsys, "tower", "2", "3", "--ell", "2", "--n", "3")
    res = doc["results"]
    assert res["orders"] == ["1", "3", "3", "3"]
    assert res["closed_form"] == ["1", "3", "3", "3"]
    assert res["closed_form_agrees"] is True
    assert res["relative"] is False
    assert res["invariants"] == {"mu": 0, "lambda": 0, "nu": 0, "nu_kind": "absolute"}


def test_tower_link_payload(capsys):
    doc = run_json(capsys, "tower", "3", "6", "--z", "1,1,1", "--ell", "3", "--n", "4")
    res = doc["results"]
    assert res["relative"] is True
    assert res["orders"] == ["1", "0", "0", "0", "0"]
    assert res["invariants"]["mu"] == 0
    assert res["invariants"]["lambda"] == 4
    assert res["invariants"]["nu_kind"] == "not_applicable"
    assert res["lambda_decomposition_agrees"] is True


def test_tower_link_prints_fit_window(capsys):
    # lambda = 13 puts the nu fit window at n = 5..7, and every level the
    # invariants were decided on is in the output
    doc = run_json(capsys, "tower", "3", "6", "--z", "1,2,1", "--ell", "2")
    assert doc["inputs"]["n"] == 7
    res = doc["results"]
    assert res["v"] == 1
    assert res["orders"] == ["1", "1"] + ["0"] * 6
    assert res["valuations"] == [0, 0] + [None] * 6
    assert res["invariants"] == {"mu": 0, "lambda": 13, "nu": None, "nu_kind": "not_applicable"}
    code, out, _ = run(capsys, "tower", "3", "6", "--z", "1,2,1", "--ell", "2", "--csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1,0", "1,1,0"] + [f"{n},0," for n in range(2, 8)]


def test_tower_zero_alpha(capsys):
    code, _, err = run(capsys, "tower", "2", "4", "--z", "1,-1", "--ell", "2")
    assert code == 1
    assert err.startswith("error[ZERO_ALPHA]")


def test_tower_knot_needs_no_z(capsys):
    code, _, err = run(capsys, "tower", "2", "4", "--ell", "2")
    assert code == 2
    assert "pass --z" in err


def test_tower_csv(capsys):
    code, out, _ = run(capsys, "tower", "2", "3", "--ell", "2", "--n", "2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "n,order,valuation"
    assert out.splitlines()[1] == "0,1,0"


def test_mahler_pair(capsys):
    doc = run_json(capsys, "mahler", "2", "3", "--grid", "65536")
    res = doc["results"]
    assert abs(res["roots_measure"] - 1.0) < 1e-9
    assert abs(res["log_quadrature"]) < 1e-2
    assert res["jensen_gap"] < 1e-2


def test_mahler_poly(capsys):
    # leading minus needs the = form, else argparse reads it as a flag
    doc = run_json(capsys, "mahler", "--poly=-2,1", "--grid", "65536")
    res = doc["results"]
    assert abs(res["roots_measure"] - 2.0) < 1e-9
    assert abs(res["log_quadrature"] - 0.6931471805599453) < 1e-3


def test_mahler_zero_poly(capsys):
    code, _, err = run(capsys, "mahler", "--poly", "0")
    assert code == 1
    assert err.startswith("error[ZERO_INPUT]")


def test_mahler_coefficient_beyond_double(capsys):
    # 10^400 has no double; the refusal is typed, not an OverflowError
    huge = "1" + "0" * 400
    for poly in (f"1,{huge}", huge):
        code, out, err = run(capsys, "mahler", f"--poly={poly}", "--grid", "64")
        assert code == 1
        assert out == ""
        assert err.startswith("error[NON_FINITE]")


def test_mahler_conflicting_inputs(capsys):
    code, _, err = run(capsys, "mahler", "2", "3", "--poly", "1,1")
    assert code == 2


def test_usage_error_bad_params(capsys):
    code, _, err = run(capsys, "invariant", "0", "3")
    assert code == 2
    assert err.startswith("error[USAGE]")


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

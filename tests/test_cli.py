import json
import subprocess
import sys

import pytest

from kstab.cli import series_payload
from kstab.scenarios import corpus_dir
from kstab.series import series_sum

CLI = [sys.executable, "-m", "kstab.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kwargs
    )


def test_list_names_corpus():
    proc = run_cli("list")
    assert proc.returncode == 0
    assert "24-cusp" in proc.stdout
    assert "27-series" in proc.stdout


def test_verify_single_scenario_exit_zero():
    proc = run_cli("verify", str(corpus_dir() / "24-cusp.json"))
    assert proc.returncode == 0
    assert "[ok" in proc.stdout


def test_verify_corrupted_file_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("scenario, keys, path", [
    ("24-cusp", ("families", "f", "pieces"), "families.f.pieces"),
    ("24-cusp", ("families", "f", "pieces", 0, "u"), "families.f[0].u"),
    ("24-cusp", ("families", "f", "pieces", 0, "coeffs"), "families.f[0].coeffs"),
    ("24-cusp", ("flags", "Q_plain", "center"), "flags.Q_plain.center"),
    ("27-threefold", ("threefold", "basis"), "threefold.basis"),
    ("27-threefold", ("threefold", "triple"), "threefold.triple"),
    ("27-threefold", ("threefold", "families", "S", "intervals"), "threefold.S.intervals"),
    ("27-threefold", ("threefold", "families", "S", "intervals", 0, "u"), "threefold.S[0].u"),
    ("27-threefold", ("threefold", "families", "S", "intervals", 0, "P"), "threefold.S[0].P"),
    ("27-threefold", ("threefold", "families", "S", "intervals", 0, "N"), "threefold.S[0].N"),
])
def test_verify_missing_field_exit_two(tmp_path, scenario, keys, path):
    raw = json.loads((corpus_dir() / f"{scenario}.json").read_text())
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(raw))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert f"{path}: missing field" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("scenario, keys, value, path", [
    ("27-line-flag", ("families", "L", "pieces", 0, "u"), ["1/0", "x"], "families.L[0].u[0]"),
    ("27-line-flag", ("families", "L", "pieces", 0, "u"), ["0", "x"], "families.L[0].u[1]"),
    ("27-line-flag", ("families", "L", "pieces", 0, "u"), ["0"], "families.L[0].u"),
    ("27-line-flag", ("families", "L", "pieces", 0, "u"), ["0", "1", "2"], "families.L[0].u"),
    ("27-line-flag", ("V",), "twelve", ":V"),
    ("27-line-flag", ("V",), "0", ":V"),
    ("27-line-flag", ("V",), "-3/2", ":V"),
    ("27-threefold", ("threefold", "families", "S", "intervals", 0, "u"), ["0", "1/0"],
     "threefold.S[0].u[1]"),
    ("27-threefold", ("threefold", "triple", 0), [0, 0, 0, "2/0"], "threefold.triple[0]"),
    ("27-threefold", ("threefold", "triple", 1), [0, 1, "-8"], "threefold.triple[1]"),
    ("24-cusp", ("flags", "Q_on_L", "mults", "L"), "one", "flags.Q_on_L.mults.L"),
    ("24-cusp", ("flags", "Q_on_L", "A"), "5/0", "flags.Q_on_L.A"),
    ("24-cusp", ("flags", "Q_plain", "different", "Q2"), "1/2/3", "flags.Q_plain.different.Q2"),
    ("24-cusp", ("flags", "Q_plain", "center"), "Nope", "flags.Q_plain.center"),
    ("24-cone", ("flags", "Q_on_CC", "threefold_ord", 0, "u"), ["1", "y"],
     "flags.Q_on_CC.threefold_ord[0].u[1]"),
    # wrongly typed containers
    ("21-d1-fibration", ("families", "s", "threshold", 0), ["0", "1"],
     "families.s.threshold[0]"),
    ("24-cusp", ("families", "f", "pieces"), 3, "families.f.pieces"),
    ("24-cusp", ("families", "f", "pieces", 0, "coeffs"), 3, "families.f[0].coeffs"),
    ("27-threefold", ("threefold", "basis"), 3, "threefold.basis"),
    ("24-cusp", ("curves",), 3, ":curves"),
    ("24-cusp", ("families",), [], ":families"),
    ("24-cusp", ("flags",), "Q_plain", ":flags"),
    ("24-cusp", ("expect", 0), 3, "expect[0]"),
    # expectation values of the wrong shape
    ("delta-bounds", ("expect", 0, "value"), {}, "expect[0].value"),
    ("delta-bounds", ("expect", 0, "value"), {"decimal": "abc", "tol": "1"},
     "expect[0].value.decimal"),
    ("delta-bounds", ("expect", 0, "value"), "abc", "expect[0].value"),
    ("24-cusp", ("expect", 0, "args"), ["f"], "expect[0].args"),
])
def test_verify_malformed_value_exit_two(tmp_path, scenario, keys, value, path):
    raw = json.loads((corpus_dir() / f"{scenario}.json").read_text())
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(raw))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert f"{path}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_mismatch_exit_one(tmp_path):
    raw = json.loads((corpus_dir() / "delta-bounds.json").read_text())
    raw["expect"] = [raw["expect"][0]]
    raw["expect"][0]["value"] = "999"
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    assert proc.stdout.count("mismatch") == 1


def test_verify_json_round_trips_to_identical_bytes(tmp_path):
    proc = run_cli("verify", str(corpus_dir() / "delta-bounds.json"), "--json")
    assert proc.returncode == 0
    text = proc.stdout
    rendered = json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    assert rendered == text


def test_verify_all_builtin_corpus():
    proc = run_cli("verify", "--all")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert "relative to each scenario's declared curve universe" in proc.stdout


def test_decompose_chamber_table():
    proc = run_cli("decompose", "24-cusp", "--family", "f")
    assert proc.returncode == 0
    assert "3 chambers" in proc.stdout
    assert "support {C, L}" in proc.stdout


def test_decompose_at_nef_point():
    proc = run_cli("decompose", "24-cusp", "--family", "f", "--at", "u=0,v=0")
    assert proc.returncode == 0
    assert "N = 0" in proc.stdout


def test_decompose_at_outside_domain():
    proc = run_cli("decompose", "24-cusp", "--family", "f", "--at", "u=0,v=100")
    assert proc.returncode == 2
    assert "outside parameter domain" in proc.stderr


def test_decompose_unknown_family():
    proc = run_cli("decompose", "24-cusp", "--family", "nope")
    assert proc.returncode == 2


def test_series_ledger_contains_leading_terms():
    proc = run_cli("series", "--max-n", "0")
    assert proc.returncode == 0
    assert "84365/114688" in proc.stdout
    assert "281/32256" in proc.stdout
    assert "HEURISTIC" in proc.stdout


def test_series_json_round_trip_and_f_bound():
    proc = run_cli("series", "--max-n", "3", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    rendered = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert rendered == proc.stdout
    # the in-process rendering the acceptance hash pins is the CLI's stdout
    in_process = json.dumps(series_payload(series_sum(3)), indent=1, sort_keys=True) + "\n"
    assert in_process == proc.stdout
    from fractions import Fraction

    assert Fraction(payload["F_partial"]) < Fraction(14, 1000)


def test_series_rejects_negative_n():
    proc = run_cli("series", "--max-n", "-1")
    assert proc.returncode == 2


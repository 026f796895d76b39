import copy
import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import series
from kstab.scenarios import (
    ScenarioError,
    corpus_dir,
    corpus_paths,
    load_corpus,
    load_scenario,
    run_expectations,
    scenario_from_dict,
)

KNOWN_TOP_LEVEL_KEYS = {
    "id", "lemma", "V", "curves", "gram", "threefold", "families",
    "flags", "expect", "notes",
}


def cusp_raw():
    return json.loads((corpus_dir() / "24-cusp.json").read_text())


def test_corpus_loads_and_uses_known_fields():
    paths = corpus_paths()
    assert len(paths) >= 25
    for path in paths:
        raw = json.loads(path.read_text())
        assert set(raw) <= KNOWN_TOP_LEVEL_KEYS, path
        scenario = load_scenario(path)
        assert scenario.id == path.stem


def test_run_expectations_matches_on_cusp_scenario():
    report = run_expectations(load_scenario(corpus_dir() / "24-cusp.json"))
    assert report.ok
    values = {
        row.op + json.dumps(row.args, sort_keys=True): row.computed
        for row in report.rows
    }
    assert F(173, 40) in values.values()
    assert F(193, 480) in values.values()


def test_wrong_expectation_reports_mismatch():
    raw = cusp_raw()
    raw["expect"] = [
        {"op": "s_curve", "args": {"family": "f"}, "value": "173/40"},
        {"op": "s_curve", "args": {"family": "f"}, "value": "174/40"},
    ]
    report = run_expectations(scenario_from_dict(raw))
    statuses = [row.status for row in report.rows]
    assert statuses == ["match", "mismatch"]
    assert not report.ok and not report.errored


def test_unknown_op_reports_error_row():
    raw = cusp_raw()
    raw["expect"] = [
        {"op": "no_such_quantity", "args": {}, "value": "1"},
        {"op": "series_partial", "args": {"n_max": 0, "kind": "M"}, "value": "1"},
    ]
    report = run_expectations(scenario_from_dict(raw))
    assert [row.status for row in report.rows] == ["error", "error"]
    assert report.rows[1].detail == "unknown series partial kind 'M'"
    assert report.errored


def test_series_ops_compute_each_band_once(monkeypatch):
    calls = []
    compute_band = series.compute_band

    def counted(n, i):
        calls.append((n, i))
        return compute_band(n, i)

    monkeypatch.setattr(series, "compute_band", counted)
    report = run_expectations(load_scenario(corpus_dir() / "27-series.json"))
    assert all(row.status == "match" for row in report.rows)
    assert len(calls) == 28
    assert set(calls) == {(n, i) for n in range(7) for i in (1, 2, 3, 4)}


def test_malformed_json_raises_with_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"id": "x", "V": }')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(bad)


def test_missing_field_raises(tmp_path):
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps({"id": "x"}))
    with pytest.raises(ScenarioError, match="missing field"):
        load_scenario(bad)


def test_asymmetric_gram_raises():
    raw = cusp_raw()
    raw["gram"][0][1] = "2"
    with pytest.raises(ScenarioError, match="symmetric"):
        scenario_from_dict(raw)


def test_bad_rational_raises_with_field_path():
    raw = cusp_raw()
    raw["families"]["f"]["pieces"][0]["coeffs"][0][0] = "nine"
    with pytest.raises(ScenarioError, match="families.f"):
        scenario_from_dict(raw)


def test_unknown_flag_curve_rejected():
    raw = cusp_raw()
    raw["flags"]["Q_on_L"]["mults"]["Nope"] = "1"
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_decimal_tolerance_expectations():
    raw = cusp_raw()
    raw["expect"] = [
        {"op": "s_curve", "args": {"family": "f"},
         "value": {"decimal": "4.325", "tol": "0.001"}},
        {"op": "s_curve", "args": {"family": "f"}, "value": {"max": "9/2"}},
        {"op": "s_curve", "args": {"family": "f"}, "value": {"min": "4"}},
    ]
    report = run_expectations(scenario_from_dict(raw))
    assert [row.status for row in report.rows] == ["match"] * 3


def test_d_template_instantiation_covers_all_degrees():
    ids = {s.id for s in load_corpus()}
    for d in (1, 2, 3):
        assert f"21-d{d}-fibration" in ids
        assert f"21-d{d}-hyperplane" in ids
        assert f"21-d{d}-nodal" in ids
    assert "21-d1-tower" in ids and "21-d2-tower" in ids


def test_report_json_shape():
    report = run_expectations(load_scenario(corpus_dir() / "delta-bounds.json"))
    payload = report.to_json_dict()
    assert payload["scenario"] == "delta-bounds"
    assert payload["ok"] is True
    assert all(row["status"] == "match" for row in payload["rows"])
    # computed rationals render exactly, with a decimal companion
    rational_rows = [r for r in payload["rows"] if isinstance(r["computed"], dict)]
    assert any(r["computed"]["rational"] == "16/15" for r in rational_rows)


CORPUS_RAW = {path.stem: json.loads(path.read_text()) for path in corpus_paths()}
REPLACEMENTS = [None, 0, "x", [], {}, ["x"]]


@pytest.mark.parametrize("scenario_id, op, key, value", [
    ("delta-bounds", "fiber_delta_bound", "d", 2.9),
    ("delta-bounds", "fiber_delta_bound", "d", True),
    ("delta-bounds", "fiber_delta_bound", "on_E", "false"),
    ("27-threefold", "quartic_fiber_bound", "singular", 0),
    ("27-series", "series_term", "n", 0.5),
    ("27-series", "series_term", "i", True),
    ("27-series", "series_threshold", "n", "0"),
    ("27-series", "series_partial", "n_max", 6.0),
    ("24-cusp", "oracle", "samples", 0),
    ("24-cusp", "oracle", "samples", -3),
    ("24-cusp", "oracle", "seed", "7"),
    ("24-cusp", "chamber_pairing", "chamber", -1),
    ("24-cusp", "chamber_pairing", "chamber", 99),
    ("delta-bounds", "delta_min", "terms", 5),
    ("delta-bounds", "delta_min", "terms", [["1"]]),
    ("25-beta", "beta_lower_bound", "pieces", {"u": ["0", "1"]}),
    ("25-beta", "beta_lower_bound", "pieces", [{"u": ["0"], "poly": []}]),
])
def test_malformed_expectation_argument_is_an_error_row(scenario_id, op, key, value):
    """An argument of the wrong JSON type or out of range is an error row
    naming it, never a coerced value or a vacuous check."""
    raw = copy.deepcopy(CORPUS_RAW[scenario_id])
    entry = next(e for e in raw["expect"] if e["op"] == op)
    entry["args"][key] = value
    raw["expect"] = [entry]
    report = run_expectations(scenario_from_dict(raw))
    (row,) = report.rows
    assert row.status == "error"
    assert repr(key) in row.detail
    assert report.errored


def test_missing_expectation_argument_is_an_error_row():
    raw = copy.deepcopy(CORPUS_RAW["delta-bounds"])
    entry = next(e for e in raw["expect"] if e["op"] == "delta_min")
    del entry["args"]["terms"]
    raw["expect"] = [entry]
    (row,) = run_expectations(scenario_from_dict(raw)).rows
    assert (row.status, row.detail) == ("error", "missing argument 'terms'")


@given(st.sampled_from(sorted(CORPUS_RAW)), st.data())
@settings(max_examples=300, deadline=None)
def test_corpus_mutation_loads_or_raises_scenario_error(scenario_id, data):
    """Delete one node of a corpus file, or replace it by a wrongly typed
    value: the loader returns a scenario or raises ScenarioError, nothing else."""
    raw = copy.deepcopy(CORPUS_RAW[scenario_id])
    parent, key, node = None, None, raw
    while isinstance(node, (dict, list)) and node:
        if parent is not None and data.draw(st.booleans()):
            break
        parent = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    try:
        scenario_from_dict(raw, origin=scenario_id)
    except ScenarioError:
        pass


def test_generator_renders_the_committed_corpus():
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rendered = {f"{raw['id']}.json": gen.render(raw) for raw in gen.build_all()}
    committed = {path.name: path.read_text() for path in corpus_paths()}
    assert rendered == committed

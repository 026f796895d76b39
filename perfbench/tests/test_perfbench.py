"""Tests of the benchmark itself: span arithmetic, patching, gates, repeatability.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

REPO = Path(__file__).resolve().parents[2]


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a.leaf [2, 3];  root > b [5, 9]
    tracer = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.enter("root")
    a = tracer.enter("a")
    leaf = tracer.enter("leaf")
    tracer.exit(leaf)
    tracer.exit(a)
    b = tracer.enter("a")
    tracer.exit(b)
    tracer.exit(root)
    assert tracer.self_times() == [3, 2, 1, 4]
    stats = tracer.aggregate()
    assert stats["root"]["self_s"] == 3
    assert stats["a"] == {"calls": 2, "self_s": 6, "total_s": 7, "durations": [3, 4]}
    assert stats["leaf"]["total_s"] == 1
    assert tracer.parent_name(leaf) == "a"
    assert tracer.parent_name(root) is None


def test_wrapper_records_span_even_when_the_call_raises():
    tracer = spans.Tracer(clock=fake_clock(0, 1))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.aggregate()["boom"]["calls"] == 1
    assert tracer._stack == [-1]


def _kstab_bindings():
    """Identity of every attribute of every kstab module and patched class."""
    out = {}
    for name, module in sys.modules.items():
        if name == "kstab" or name.startswith("kstab."):
            out[name] = {k: id(v) for k, v in vars(module).items()}
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    out[f"{name}.{cls.__name__}"] = {k: id(v) for k, v in vars(cls).items()}
    return out


def test_module_attributes_are_identical_after_a_traced_run():
    workloads.Ladder.setup({"max_n": 0})
    import kstab.series
    import kstab.zariski

    original = kstab.zariski.decompose_parametric
    before = _kstab_bindings()
    tracer = spans.Tracer()
    with tracer:
        # the wrapper replaces the definition and the name series imported
        assert kstab.zariski.decompose_parametric is not original
        assert kstab.series.decompose_parametric is kstab.zariski.decompose_parametric
        workloads.Ladder.iteration({"max_n": 0})
    assert _kstab_bindings() == before
    assert kstab.series.decompose_parametric is original
    assert tracer.aggregate()["zariski.decompose_parametric"]["calls"] == 4


def test_ladder_gate_counts_a_tampered_entry():
    code, text = workloads.Ladder.iteration({"max_n": 1})
    assert workloads.check_ladder(code, text, 1) == (35, 0)
    for kind, cell in (("S", [0]), ("M", [1, 0]), ("M", [3, 1]), ("F", [2])):
        payload = json.loads(text)
        row = payload["ledger"][1][kind]
        for key in cell[:-1]:
            row = row[key]
        row[cell[-1]] = "2/7"
        assert workloads.check_ladder(code, json.dumps(payload), 1) == (35, 1), (kind, cell)
    payload = json.loads(text)
    payload["S_partial"] = "1"
    assert workloads.check_ladder(code, json.dumps(payload), 1) == (35, 1)
    del payload["ledger"][0]
    assert workloads.check_ladder(code, json.dumps(payload), 1) == (35, 17)
    assert workloads.check_ladder(1, text, 1) == (35, 35)


def test_corpus_gate_needs_exit_zero_and_every_row_matching():
    text = json.dumps({"reports": [{"rows": [{"status": "match"}, {"status": "match"}]}]})
    assert workloads.check_corpus(0, text, 2) == (2, 0)
    assert workloads.check_corpus(1, text, 2) == (2, 1)
    assert workloads.check_corpus(0, text, 3) == (3, 1)
    mismatch = text.replace('"match"}]', '"mismatch"}]')
    assert workloads.check_corpus(0, mismatch, 2) == (2, 1)
    assert workloads.check_corpus(0, "not json", 2) == (2, 2)


def test_parameters_come_from_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.params(5) == workload.params(5)
    assert workloads.Ladder.params(5)["max_n"] in workloads.LADDER_LEVELS
    corpus = workloads.Corpus.params(5)["order"]
    assert sorted(corpus) == [p.name for p in workloads.corpus_files()]
    assert corpus != workloads.Corpus.params(6)["order"]
    passes = workloads.Surfaces.params(5)["passes"]
    assert len(passes) == workloads.SURFACE_PASSES
    assert len({p["oracle_seed"] for p in passes}) == len(passes)
    assert "27-series" not in passes[0]["order"]


def _traced_counts(workload, params):
    tracer, output, _ = run.traced_iteration(workload, params)
    assert workload.check(workload.setup(params), output)[1] == 0
    metrics = run.per_layer_metrics(tracer, 0.0, 1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}


@pytest.mark.parametrize("name", ["ladder", "surfaces"])
def test_traced_counts_repeat_exactly(name):
    workload = workloads.WORKLOADS[name]
    params = {"max_n": 1} if name == "ladder" else {
        "passes": workloads.Surfaces.params(3)["passes"][:1]}
    first = _traced_counts(workload, params)
    assert first == _traced_counts(workload, params)
    assert first["trace.spans"] > 0
    if name == "ladder":
        assert first["series.compute_band.calls"] == 8
        assert first["series.distinct_band_ratio"] == 1.0
        assert first["zariski.oracle_check.calls"] == 0
    else:
        assert first["series.compute_band.calls"] == 0
        assert first["zariski.decompose_at.oracle.calls"] > 0


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer, _, _ = run.traced_iteration(workloads.Ladder, {"max_n": 0})
    emitted = {k: unit for k, (_, unit) in run.per_layer_metrics(tracer, 0.0, 1.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

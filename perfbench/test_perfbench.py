"""Self-tests of the benchmark harness, at toy size.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import HOOKS, LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Reference, load_reference

sys.path.insert(0, str(run.SRC))

COUNT_UNITS = ("count", "bits", "ratio")


def smoke(name, trace, ref=None):
    return run.run(name, seed=0, seconds=0, trace=trace, smoke=True, ref=ref)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(name, trace):
    result = smoke(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = [m for m, _, _ in LAYER_METRICS] if trace else [m for m, _ in run.END_TO_END]
    assert list(result["metrics"]) == want


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["xseries-m2", "oracle-stats"])
def test_wrong_reference_fails_every_call(name, trace):
    good = load_reference()
    sequences = {m: list(terms) for m, terms in good.sequences.items()}
    sequences[2][1] += 1  # n=1 is in every output of the m=2 workload
    table1 = dict(good.table1)
    table1[2] = table1[2][:5] + (table1[2][5] + 1,) + table1[2][6:]  # the smoke size n=6
    result = smoke(name, trace, ref=Reference(sequences, table1))
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"] and result["metrics"] == {}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    counts = [
        {k: v["value"] for k, v in smoke(name, True)["metrics"].items() if v["unit"] in COUNT_UNITS}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_renamed_helper_is_reported_missing():
    hooks = [
        (span, tuple(b.replace("poly_mul", "poly_mul_renamed") for b in bindings), after)
        for span, bindings, after in HOOKS
    ]
    hooks.append(("elsewhere", ("nestcount.no_such_module:fn",), None))
    tracer = Tracer("t", hooks)
    tracer.install()
    try:
        from nestcount import polyops

        assert polyops.poly_mul({(1,): 2}, {(1,): 3}) == {(2,): 6}
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == {"polyops.poly_mul", "elsewhere"}
    values = layer_metrics(tracer.report())
    assert values["polyops.poly_mul.calls"] is None
    assert values["polyops.poly_add_sub.calls"] == 0


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, u) for m, u, _ in LAYER_METRICS
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "xseries-m2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

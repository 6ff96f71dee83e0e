"""Smoke tests for the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import bootstrap  # noqa: E402

bootstrap.prepare()

import bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

TINY = {
    "book_renewal": {"n": 400, "min_ops": 150},
    "book_path": {"n": 400, "horizon": 0.5, "min_ops": 6},
    "limit_renewal": {"stage_paths": 3, "min_ops": 200},
    "analytic_sweep": {"sets": ("symmetric",), "alphas": 2},
}

# metrics the report names per workload, with their units
NAMED = {
    "book_renewal": {"book.renewals_per_s": "1/s", "book.renewal_ms_p50": "ms",
                     "book.renewal_ms_p90": "ms"},
    "book_path": {"path.paths_per_s": "1/s", "path.path_ms_p90": "ms"},
    "limit_renewal": {"limit.renewals_per_s": "1/s", "limit.renewal_ms_p50": "ms",
                      "limit.renewal_ms_p90": "ms"},
    "analytic_sweep": {"analytic.cold_set_s_p50": "s", "analytic.cf_evals_per_s": "1/s",
                       "analytic.cf_ms_p50": "ms", "analytic.cf_ms_p90": "ms"},
}

# public calls each traced run must record, by phase
SPANS = {
    "book_renewal": {"setup": {"model_params.derive_constants", "lob_simulator.run_until_renewal"},
                     "timed": {"lob_simulator.run_until_renewal"},
                     "gate": {"analytics.renewal_down_prob"}},
    "book_path": {"setup": {"model_params.derive_constants", "lob_simulator.run_scaled_path"},
                  "timed": {"lob_simulator.run_scaled_path"},
                  "gate": {"lob_simulator.occupation_fractions",
                           "lob_simulator.martingale_drift_stat"}},
    "limit_renewal": {"setup": {"model_params.derive_constants",
                                "limit_processes.simulate_renewal_limit"},
                      "timed": {"lob_simulator.path_stream",
                                "limit_processes.simulate_renewal_limit"},
                      "gate": {"analytics.renewal_down_prob"},
                      "stages": set(workloads.LimitRenewal.stage_names)},
    "analytic_sweep": {"setup": {"model_params.derive_constants", "analytics.p_vstar_total"},
                       "timed": {"analytics.renewal_down_prob", "analytics.renewal_cf:cold",
                                 "analytics.renewal_cf:warm"},
                       "gate": {"analytics.renewal_cf:zero"}},
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request):
    name = request.param
    return name, bench.execute(name, seed=7, seconds=0.01, trace=True,
                               sizes=TINY[name], probes=1)


def test_metric_tables_match_benchmark_json():
    assert bench.END_TO_END == _units("end_to_end")
    assert bench.PER_LAYER == _units("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_workload_emits_every_metric_with_unit(traced):
    name, report = traced
    assert report["correct"], report["checks"]
    for section, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert set(report[section]) == set(table)
        assert all(math.isfinite(v) for v in report[section].values())
    for metric in bench.END_TO_END:
        assert report["end_to_end"][metric] > 0, metric
    for metric, unit in NAMED[name].items():
        value, got = report["named"][metric]
        assert got == unit and value > 0, metric
    line = bench.contract_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == bench.PER_LAYER


def test_traced_run_records_public_calls(traced):
    name, report = traced
    for phase, expected in SPANS[name].items():
        assert expected <= set(report["phases"][phase]["spans"]), phase
    # the layers' self time accounts for the timed wall time
    assert report["per_layer"]["trace.coverage"] > 0.9
    assert 0 <= report["per_layer"]["trace.overhead"] < 0.05


WRONG = {
    "book_renewal": lambda refs: {**refs, "down_prob": 1.0 - refs["down_prob"]},
    "book_path": lambda refs: {**refs, "frac_one_tick": refs["frac_one_tick"] - 0.2},
    "limit_renewal": lambda refs: {**refs, "down_prob": 1.0 - refs["down_prob"]},
    "analytic_sweep": lambda refs: {**refs, "symmetric_down_prob": 0.4},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_rejects_wrong_reference(name):
    workload = workloads.make(name, **TINY[name])
    out, refs, est = bench.run_phases(workload, 3, 0.01, NullTracer(), speed.SpeedProbe())
    assert all(c["passed"] for c in workload.check(est, refs))
    assert not all(c["passed"] for c in workload.check(est, WRONG[name](refs)))


def test_cli_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limit_renewal", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "book_path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

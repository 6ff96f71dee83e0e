"""Run one workload end to end and assemble its metrics and report.

``execute`` measures the set-up cost in fresh interpreters, runs the
workload's phases in this process, and returns a report holding the
manifest, every metric by name and unit, the amount of work done, the
correctness checks and, for traced runs, the per-phase span summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import bootstrap
import speed
import workloads
from spans import NullTracer, Tracer, span_cost_s

PROBE = bootstrap.ROOT / "perfbench" / "setup_probe.py"
SETUP_PROBES = 3

# metric name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}
PER_LAYER = {
    "model_params.derive_constants.calls": "count",
    "model_params.derive_constants.busy_s": "s",
    "engine.calls": "count",
    "engine.busy_s": "s",
    "engine.work": "units",
    "engine.us_per_work": "us",
    "engine.failures": "count",
    "gate.busy_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _git(*args: str) -> str | None:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=bootstrap.ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(name: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    """What was run, on which source and with which environment."""
    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "loblab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def setup_probes(name: str, seed: int, count: int = SETUP_PROBES) -> dict:
    """Median wall time of ``count`` fresh interpreters doing the set-up.

    Each wall time is rescaled to the nominal host speed by speed-kernel
    samples taken just before and after the interpreter runs.
    """
    probe = speed.SpeedProbe()
    walls, scaled, probes = [], [], []
    for _ in range(count):
        probe.sample(speed.BURST)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(PROBE), name, str(seed)],
                              capture_output=True, text=True, timeout=170, check=True)
        walls.append(time.perf_counter() - t0)
        probe.sample(speed.BURST)
        scaled.append(probe.normalize(t0, walls[-1]))
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return {"median_s": statistics.median(scaled), "samples_s": scaled,
            "unnormalized_s": walls,
            "rss_mb": statistics.median([p["peak_rss_mb"] for p in probes]), "probes": probes}


def _engine_spans(phase: dict, engine: str) -> tuple[int, float]:
    calls = busy = 0
    for span, entry in phase["spans"].items():
        if span.startswith(engine):
            calls += entry["calls"]
            busy += entry["self_s"]
    return calls, busy


def run_phases(workload, seed: int, seconds: float, tracer,
               probe: speed.SpeedProbe) -> tuple[dict, dict, dict]:
    """Set up, time, and gather the gate's references and estimates.

    Returns ``(outputs, references, estimates)``; ``workload.check`` turns
    the last two into the correctness checks.
    """
    with tracer.span("setup"):
        workload.setup(seed, tracer)
    with tracer.span("timed"):
        out = workload.timed(seconds, tracer, probe)
    with tracer.span("gate"):
        refs = workload.references(tracer)
        est = workload.estimates(out, tracer)
    if tracer.enabled and hasattr(workload, "stages"):
        with tracer.span("stages"):
            workload.stages(tracer)
    return out, refs, est


def execute(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None, probes: int = SETUP_PROBES) -> dict:
    """Run workload ``name`` and return its report (see module docstring)."""
    tracer = Tracer() if trace else NullTracer()
    probe = speed.SpeedProbe()
    workload = workloads.make(name, **(sizes or {}))
    # before the workload: a child's peak RSS starts from its parent's
    setup = setup_probes(name, seed, probes)
    out, refs, est = run_phases(workload, seed, seconds, tracer, probe)
    checks = workload.check(est, refs)
    summary = workload.summarize(out, probe.normalize)
    raw = workload.summarize(out, speed.raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "setup_s": setup["median_s"],
        "setup_rss_mb": setup["rss_mb"],
        "throughput_per_s": summary["throughput_per_s"],
        "op_ms_p50": summary["op_ms"][0],
        "op_ms_p90": summary["op_ms"][1],
    }
    named = {"setup_s": (setup["median_s"], "s"), "setup_rss_mb": (setup["rss_mb"], "MB"),
             "peak_rss_mb": (peak_rss_mb, "MB"), **summary["named"]}
    report = {
        "manifest": manifest(name, seed, seconds, trace, workload.params),
        "correct": all(c["passed"] for c in checks),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "end_to_end": end_to_end,
        "named": named,
        "named_unnormalized": raw["named"],
        "speed": {"kernel_median_s": statistics.median(probe.took),
                  "nominal_kernel_s": speed.NOMINAL_KERNEL_S,
                  "samples": len(probe.took), "kernel_total_s": sum(probe.took)},
        "work": summary["work"],
        "checks": checks,
        "setup": setup,
    }
    layers = dict(raw["layers"])
    if trace:
        phases = {root: tracer.phase(root) for root in ("setup", "timed", "gate", "stages")}
        timed = phases["timed"]
        layer_self = sum(e["self_s"] for span, e in timed["spans"].items() if span != "timed")
        spans_timed = sum(e["calls"] for e in timed["spans"].values())
        derive = phases["setup"]["spans"]["model_params.derive_constants"]
        calls, busy = _engine_spans(timed, workload.engine)
        engine = raw["engine"]
        per_layer = {
            "model_params.derive_constants.calls": derive["calls"],
            "model_params.derive_constants.busy_s": derive["self_s"],
            "engine.calls": calls,
            "engine.busy_s": busy,
            "engine.work": engine["work"],
            "engine.us_per_work": 1e6 * busy / engine["work"],
            "engine.failures": engine["failures"],
            "gate.busy_s": phases["gate"]["wall_s"],
            # the speed kernel runs between operations, outside every layer
            "trace.coverage": layer_self / (timed["wall_s"] - sum(probe.took)),
            "trace.overhead": spans_timed * span_cost_s() / timed["wall_s"],
        }
        layers["model_params.derive_constants.calls"] = (derive["calls"], "count")
        layers["model_params.derive_constants.busy_s"] = (derive["self_s"], "s")
        for stage in getattr(workload, "stage_names", ()):
            layers[f"{stage}.busy_s"] = (phases["stages"]["spans"][stage]["self_s"], "s")
        report["per_layer"] = per_layer
        report["engine"] = {"layer": workload.engine, "work_unit": engine["work_unit"]}
        report["phases"] = phases
    report["layers"] = layers
    return report


def contract_line(report: dict) -> dict:
    """The final-line result: end-to-end metrics, or per-layer ones when traced."""
    if report["manifest"]["trace"]:
        metrics = {k: {"value": report["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}

"""Measure one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line with the import time of ``loblab``, the time spent
deriving constants and warming up as the workload's own set-up does, and
the interpreter's peak resident memory at the end.
"""

import json
import resource
import sys
import time

import bootstrap


def main(name: str, seed: int) -> dict:
    bootstrap.prepare()
    t0 = time.perf_counter()
    import loblab  # noqa: F401

    import_s = time.perf_counter() - t0

    import workloads
    from spans import Tracer

    tracer = Tracer()
    workload = workloads.make(name)
    with tracer.span("setup"):
        workload.setup(seed, tracer)
    phase = tracer.phase("setup")
    derive = phase["spans"]["model_params.derive_constants"]
    return {
        "import_s": import_s,
        "setup_s": phase["wall_s"],
        "derive_constants_calls": derive["calls"],
        "derive_constants_s": derive["self_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))

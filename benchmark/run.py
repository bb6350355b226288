#!/usr/bin/env python3
"""Benchmark of the slcrigid decider, run in-process from one Python process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
One caller runs the workload's cases in whole passes (closed loop: the
next operation starts when the previous one returns) until ``--seconds``
have been spent in operations, and checks every output (see
workloads.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record goes to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_ROUNDS = 3
# the library and its thin callers, whose import cost belongs to set-up
IMPORTS = ("slcrigid", "slcrigid.cli", "slcrigid.svgout")
# One BLAS thread: the machines this runs on share two cores, and a second
# BLAS thread there made SVD times depend on what else was running.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_seconds_in_child() -> float:
    """Import time of slcrigid in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {', '.join(IMPORTS)}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slcrigid" / "__init__.py").is_file():
        print(f"no slcrigid sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    first_import = time.perf_counter() - start

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    # Set-up, several times: import, making the inputs, one warm-up operation.
    rounds = []
    cases = None
    for r in range(SETUP_ROUNDS):
        imported = first_import if r == 0 else import_seconds_in_child()
        start = time.perf_counter()
        made = workload.cases(args.seed)
        generation = time.perf_counter() - start
        if cases is None:
            cases = made
        elif [c.text for c in made] != [c.text for c in cases]:
            raise RuntimeError("the same seed made different inputs")
        warm = min(cases, key=lambda c: len(c.text))
        start = time.perf_counter()
        workload.run(warm)
        rounds.append((imported, generation, time.perf_counter() - start))
    setup_s = statistics.median(sum(r) for r in rounds)

    for case in cases:
        workload.expect(case)
    gc.collect()
    gc.freeze()  # inputs and expectations stay out of later collections

    tracer = probe_seconds = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        probe_case = workloads.generated("c3", 3, 0)
        tracer.op = "probe"
        workloads.probe(probe_case)
        tracer.op = None
        probe_seconds, _ = tracer.take()

    latencies: list[float] = []
    cpu = 0.0
    failures: list[str] = []
    unexpected = 0
    passes = 0
    while passes == 0 or sum(latencies) < args.seconds:
        for k, case in enumerate(cases):
            gc.collect()
            if tracer is not None:
                tracer.op = f"{passes}.{k}"
            error = None
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                result = workload.run(case)
            except Exception as exc:  # a raising operation counts as failed
                error = exc
            latencies.append(time.perf_counter() - start)
            cpu += time.process_time() - start_cpu
            if tracer is not None:
                tracer.op = None
            try:
                if error is None and workload.check(case, result):
                    continue
            except Exception as exc:  # so does an output the checks cannot read
                error = exc
            failures.append(f"{case.label}: {error!r}" if error else f"{case.label}: wrong output")
            unexpected += not case.known_fault
        passes += 1

    ops = len(latencies)
    # The median is taken over the cases, each at its median over the
    # run's passes: which case is slow is the program's doing, a one-off
    # slow repetition of a case is the host's.  A run times 32 to 40
    # operations on one workload and 64 on the other, too few for a
    # tail percentile to rest on ten samples beyond it.
    by_case = [statistics.median(latencies[k :: len(cases)]) for k in range(len(cases))]
    end_to_end = {
        "ops_per_s": (ops / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(by_case), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is None:
        metrics = end_to_end
    else:
        seconds, counts = tracer.take()
        layers = tracing.layer_metrics(seconds, counts, ops, probe_seconds)
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in layers.items()}
        metrics["henneberg.generate_random_s"] = (statistics.median(r[1] for r in rounds), "s")
        metrics["import_s"] = (statistics.median(r[0] for r in rounds), "s")

    line = {
        "correct": unexpected == 0,
        "attempted": ops,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        line,
        workload=args.workload, seed=args.seed, trace=args.trace, passes=passes,
        cpu_share_of_latency=cpu / sum(latencies),
        cases=[c.label for c in cases], setup_rounds=rounds,
        end_to_end={k: v for k, (v, _) in end_to_end.items()},
        failures=sorted(set(failures)),
        python=sys.version.split()[0],
        numpy=sys.modules["numpy"].__version__,
        blas_threads={v: os.environ[v] for v in THREAD_VARS},
        latencies_by_case=dict(zip((c.label for c in cases), by_case)),
        latencies=latencies,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"dropped": tracer.dropped, "spans": tracer.spans}) + "\n"
        )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run in a fresh interpreter; prints one JSON line.

Started by ``run.py`` (never in parallel with another run), so set-up
time covers interpreter start and imports, and peak memory belongs to
this workload alone.  Usage::

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED_AT [SPANS_OUT]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux).  With
``TRACE`` 1 the layer entry points are wrapped before the workload is
staged and the spans are written to ``SPANS_OUT`` after the run.
"""

import json
import os
import resource
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv):
    workload, seed, trace, spawned_at = argv[:4]
    seed, trace, spawned_at = int(seed), trace == "1", float(spawned_at)
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        raise SystemExit(f"simulator sources not found under {_SRC}")
    sys.path.insert(0, _SRC)
    import workloads

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    imported = time.monotonic()
    staged = workloads.stage(workload, seed)
    staged_at = time.monotonic()

    engine = staged.engine
    sim_start = engine.now
    events_start = engine.events_dispatched
    if tracer is not None:
        tracer.begin_run(engine)
    start, start_cpu = time.perf_counter(), time.process_time()
    staged.run()
    wall = time.perf_counter() - start
    cpu = time.process_time() - start_cpu

    result = {
        "seed": seed,
        "setup_s": staged_at - spawned_at,
        "import_s": imported - spawned_at,
        "stage_s": staged_at - imported,
        "run_wall_s": wall,
        "run_cpu_s": cpu,
        "sim_us": engine.now - sim_start,
        "events": engine.events_dispatched - events_start,
        # Every event ever scheduled, cancelled ones included; staging
        # dispatches none, so events / scheduled is the live share.
        "scheduled": engine._seq,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": staged.outcome(),
    }
    if tracer is not None:
        result["trace"] = tracer.report(wall)
        if len(argv) > 4:
            tracer.dump(argv[4])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

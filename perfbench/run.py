"""The repository benchmark: seeded simulator workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rocksdb_scan_avoid --seed 3 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seeds

Each run starts fresh interpreters (``child.py``) one at a time until
``--seconds`` have passed.  With ``--trace 0`` they cycle through an
ensemble of ``ENSEMBLE`` sub-seeds derived from ``--seed`` (``seed``,
``seed + 1000``, ...), each simulated at least once: host-time metrics
are medians over all the interpreters, and each simulated (``sim_*``)
metric is the median over the sub-seeds of a value that is exact for its
sub-seed.  One seed of a feedback-driven workload can sit far from the
next; the ensemble keeps the run-to-run spread of the ``sim_*`` metrics
small.  With ``--trace 1`` untraced and traced interpreters alternate on
``--seed`` itself, at least one of each.  A timed run is measured in
process CPU seconds (``sim_us_per_cpu_s``; ``rationale.json`` says why);
set-up time and the traced layer self times are wall seconds.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from the traced interpreters (spans go to ``.perfbench/``).

Every run checks its outputs:

- request conservation, all time: sent = completed + drops by reason
  (NIC, netstack, socket, valve, fleet) + in flight;
- on a sub-seed recorded in ``reference.json``, the simulated outcome
  equals the recorded one exactly (``rocksdb_scan_avoid_obs`` is held to
  ``rocksdb_scan_avoid``'s: observers never perturb);
- every interpreter of one sub-seed, traced or not, reports the same
  simulated outcome and event count (tracing never perturbs);
- traced layer self times add up to the traced run's wall time, and the
  layers ``rationale.json`` says a workload exercises (bypasses) record
  spans (none).

A run that errors or fails a check counts its requests as failed, prints
``"correct": false`` and exits with status 1.  Simulated drops that carry
a recorded reason are outcomes (``sim_served_pct``), not failures.
``python3 perfbench/run.py --record-reference`` rewrites
``reference.json`` for the default and held-out seeds' sub-seeds; do
that only for a change that is meant to alter the simulated outcomes.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import COUNTS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RATIONALE = os.path.join(HERE, "rationale.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

#: Seed each workload's reference outputs are recorded for (the seeds
#: tools/bench.py uses for the same figure points).  ``seed + 1`` is the
#: held-out seed, recorded too, for re-checking a claim on inputs the
#: change was not written against.
DEFAULT_SEEDS = {
    "rocksdb_scan_avoid": 3,
    "rocksdb_scan_avoid_obs": 3,
    "elastic_oversub": 5,
    "fleet_p2c": 7,
}
WORKLOADS = tuple(DEFAULT_SEEDS)
#: Workloads whose simulated outcome must equal another's, seed for seed.
SAME_OUTCOME_AS = {"rocksdb_scan_avoid_obs": "rocksdb_scan_avoid"}

ENSEMBLE = 6
SUBSEED_STRIDE = 1000
#: Stop starting interpreters once another could overrun this budget,
#: and kill one still running at the deadline: a run ends within 180 s.
RUN_BUDGET_S = 150.0
DEADLINE_S = 170.0

SIM_KEYS = ("sim_p50_us", "sim_p99_us", "sim_served_pct")
END_TO_END_UNITS = {
    "sim_us_per_cpu_s": "sim_us/cpu_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "sim_served_pct": "%",
}


class ChildError(RuntimeError):
    """A benchmark interpreter exited badly or printed no result."""


def spawn(workload, seed, trace, timeout=DEADLINE_S):
    """Run one fresh interpreter; returns its parsed result."""
    spans_out = []
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_out.append(
            os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.bin"))
    args = [sys.executable, CHILD, workload, str(seed), str(int(trace)),
            repr(time.monotonic())] + spans_out
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{workload} seed {seed} trace {int(trace)} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def conservation_problem(outcome):
    terms = outcome["terms"]
    accounted = (terms["completed"] + sum(terms["drops"].values())
                 + terms["in_flight"])
    if terms["sent"] != accounted:
        return (f"requests not conserved: sent {terms['sent']} != "
                f"completed + drops + in flight = {accounted}")
    if outcome["lc_samples"] == 0:
        return "no latency samples for the latency-critical class"
    return None


def subseeds(seed):
    return [seed + SUBSEED_STRIDE * i for i in range(ENSEMBLE)]


def reference_problem(workload, seed, outcome):
    recorded = _load(REFERENCE).get(SAME_OUTCOME_AS.get(workload, workload),
                                    {})
    expected = recorded.get(str(seed))
    if expected is not None and expected != outcome:
        return (f"seed {seed} outcome differs from reference.json: "
                f"{json.dumps(outcome)} != {json.dumps(expected)}")
    return None


def layer_problems(workload, trace):
    """Exercised layers must record spans; bypassed layers none."""
    from_kinds = {}
    for name, layer in trace["kind_layer"].items():
        from_kinds[layer] = from_kinds.get(layer, 0) + trace["calls"][name]
    plan = _load(RATIONALE)["workloads"][workload]
    problems = []
    for layer in plan["exercises"]:
        if from_kinds.get(layer, 0) == 0:
            problems.append(f"layer {layer} recorded no spans")
    for layer in plan["bypasses"]:
        if from_kinds.get(layer, 0) != 0:
            problems.append(
                f"bypassed layer {layer} recorded {from_kinds[layer]} spans"
            )
    return problems


def check_run(workload, results):
    """All output checks over one run's interpreter results."""
    problems = []
    first = {}
    for result in results:
        seed = result["seed"]
        for problem in (conservation_problem(result["outcome"]),
                        reference_problem(workload, seed,
                                          result["outcome"])):
            if problem is not None:
                problems.append(problem)
        same = first.setdefault(seed, result)
        if (result["outcome"], result["events"]) != \
                (same["outcome"], same["events"]):
            problems.append(
                f"seed {seed}: interpreters disagree on the simulated "
                f"outcome ({'traced' if 'trace' in result else 'untraced'}"
                " run)"
            )
        trace = result.get("trace")
        if trace is not None:
            total = sum(trace["self_s"].values())
            if not math.isclose(total, result["run_wall_s"],
                                rel_tol=1e-9, abs_tol=1e-6):
                problems.append(
                    f"layer self times sum to {total} s, traced run took "
                    f"{result['run_wall_s']} s"
                )
            problems.extend(layer_problems(workload, trace))
    return sorted(set(problems))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(results, fn):
    return statistics.median(fn(r) for r in results)


def end_to_end(untraced):
    outcomes = {r["seed"]: r["outcome"] for r in untraced}.values()
    values = {
        "sim_us_per_cpu_s": _median(
            untraced, lambda r: r["sim_us"] / r["run_cpu_s"]),
        "setup_s": _median(untraced, lambda r: r["setup_s"]),
        "peak_rss_mb": _median(untraced, lambda r: r["peak_rss_mb"]),
    }
    values.update({key: statistics.median(o[key] for o in outcomes)
                   for key in SIM_KEYS})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced, traced):
    """The per-layer metrics: exact counts plus median host times."""
    first = traced[0]
    trace = first["trace"]
    outcome = first["outcome"]
    calls = trace["calls"]

    def count(name):
        return sum(calls[kind] for kind in COUNTS[name])

    def self_s(layer):
        return _median(traced, lambda r: r["trace"]["self_s"][layer])

    drops = outcome["terms"]["drops"]
    metrics = {
        "sim.events": (first["events"], "count"),
        "sim.scheduled": (first["scheduled"], "count"),
        "sim.live_ratio": (first["events"] / first["scheduled"], "ratio"),
        "sim.events_per_cpu_s": (
            _median(untraced, lambda r: r["events"] / r["run_cpu_s"]),
            "1/cpu_s"),
        "net.drops": (drops.get("nic", 0), "count"),
        "kernel.netstack.drops": (
            sum(drops.get(k, 0) for k in ("netstack", "socket", "valve")),
            "count"),
        "kernel.sockets.accept_ratio": (
            trace["accepted_enqueues"] / count("kernel.sockets.enqueues")
            if count("kernel.sockets.enqueues") else 0.0, "ratio"),
        "kernel.sockets.wait_us_p99": (trace["socket_wait_us_p99"],
                                       "sim_us"),
        "core.hooks.executor_ratio": (
            trace["target_decisions"] / count("core.hooks.decisions")
            if count("core.hooks.decisions") else 0.0, "ratio"),
        "ebpf.load_s": (
            _median(traced, lambda r: r["trace"]["ebpf_load_s"]), "s"),
        "obs.self_s": (_median(traced, lambda r: r["trace"]["self_s"]["obs"]
                               + r["trace"]["self_s"]["obs.acct"]), "s"),
        "setup.import_s": (_median(untraced, lambda r: r["import_s"]), "s"),
        "setup.stage_s": (_median(untraced, lambda r: r["stage_s"]), "s"),
        "trace.overhead_ratio": (
            _median(traced, lambda r: r["run_cpu_s"])
            / _median(untraced, lambda r: r["run_cpu_s"]), "ratio"),
    }
    for name in COUNTS:
        metrics[name] = (count(name), "count")
    for layer in LAYERS:
        if layer != "obs":
            metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())}


# ----------------------------------------------------------------------
def run_workload(workload, seed, seconds, trace, echo):
    """Measure one workload; returns the result object that is printed."""
    started = time.monotonic()
    ensemble = subseeds(seed)
    untraced, traced = [], []
    problems = []
    crashed = 0
    longest = 0.0
    while True:
        want_trace = trace and len(traced) < len(untraced)
        run_seed = seed if trace else ensemble[len(untraced) % ENSEMBLE]
        t0 = time.monotonic()
        try:
            result = spawn(workload, run_seed, want_trace,
                           DEADLINE_S - (t0 - started))
        except (ChildError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            problems.append(str(exc))
            crashed += 1
            break
        longest = max(longest, time.monotonic() - t0)
        (traced if want_trace else untraced).append(result)
        echo(f"{workload} seed {run_seed}: "
             f"{'traced' if want_trace else 'untraced'} run "
             f"{result['run_cpu_s']:.3f} cpu-s, "
             f"setup {result['setup_s']:.3f} s")
        elapsed = time.monotonic() - started
        if trace:
            enough = len(traced) == len(untraced) >= 1
        else:
            enough = len(untraced) >= ENSEMBLE
        if (enough and elapsed >= seconds) \
                or elapsed + 1.2 * longest > RUN_BUDGET_S:
            break
    results = untraced + traced
    if not problems:
        problems = check_run(workload, results)
    if not problems and not (traced if trace else len(untraced) >= ENSEMBLE):
        problems.append("the time budget ran out before a full run")
    sent = [r["outcome"]["terms"]["sent"] for r in results]
    attempted = sum(sent) + crashed * max(sent, default=1)
    correct = not problems
    metrics = {}
    if trace and traced:
        metrics = per_layer(untraced, traced)
    elif untraced and not trace:
        metrics = end_to_end(untraced)
    for problem in problems:
        echo(f"{workload} seed {seed}: CHECK FAILED: {problem}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }


def record_reference(echo):
    """Rewrite reference.json for the default and held-out seeds."""
    reference = {}
    for workload, seed in DEFAULT_SEEDS.items():
        if workload in SAME_OUTCOME_AS:
            continue
        reference[workload] = {}
        for run_seed in subseeds(seed) + subseeds(seed + 1):
            outcome = spawn(workload, run_seed, False)["outcome"]
            problem = conservation_problem(outcome)
            if problem is not None:
                raise SystemExit(f"{workload} seed {run_seed}: {problem}")
            reference[workload][str(run_seed)] = outcome
            echo(f"{workload} seed {run_seed}: {json.dumps(outcome)}")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json (default and "
                             "held-out seeds) and exit")
    args = parser.parse_args(argv)

    def echo(message):
        print(message, file=sys.stderr, flush=True)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        echo(f"perfbench: simulator sources not found under {ROOT}/src")
        return 2
    if args.record_reference:
        record_reference(echo)
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
        results[name] = run_workload(name, seed, args.seconds,
                                     bool(args.trace), echo)
        if args.workload is None:
            for metric, m in results[name]["metrics"].items():
                print(f"{name:22s} {metric:30s} {m['value']:>16.6g} "
                      f"{m['unit']}")
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

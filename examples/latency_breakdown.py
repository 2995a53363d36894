"""Where does tail latency come from?  Span-by-span attribution.

Runs the Figure-6 workload under two policies with causal span tracing
on (``Machine(spans=1)``) and prints each run's p50-vs-p99 critical-path
table (:mod:`repro.obs.tail`), then the p99 of every span side by side —
making it visible that SCAN Avoid's entire win lives in the socket-wait
span (head-of-line blocking), while NIC, softirq and service costs are
untouched.

Run:  python examples/latency_breakdown.py
"""

from repro import Hook, Machine, set_a
from repro.apps import RocksDbServer
from repro.obs.tail import critical_path, percentile, render_critical_path
from repro.policies import ROUND_ROBIN, SCAN_AVOID
from repro.workload import GET_SCAN_995_005, OpenLoopGenerator

LOAD_RPS = 120_000
DURATION_US = 150_000.0
WARMUP_US = DURATION_US / 4
N = 6


def run(source, mark_scans):
    machine = Machine(set_a(), seed=9, spans=1, spans_capacity=1 << 16)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, N, mark_scans=mark_scans)
    app.deploy_policy(source, Hook.SOCKET_SELECT, constants={"NUM_THREADS": N})
    gen = OpenLoopGenerator(machine, 8080, LOAD_RPS, GET_SCAN_995_005,
                            duration_us=DURATION_US, warmup_us=WARMUP_US)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    return [t for t in machine.obs.spans.trees(complete=True)
            if t["start"] >= WARMUP_US]


def span_p99s(trees):
    """p99 duration of every span name, plus the request total."""
    durations = {"total": [t["end"] - t["start"] for t in trees]}
    for tree in trees:
        for span in tree["spans"]:
            durations.setdefault(span["name"], []).append(
                span["end"] - span["start"]
            )
    return {name: percentile(d, 99.0) for name, d in durations.items()}


def main():
    print(f"99.5/0.5 GET/SCAN @ {LOAD_RPS:,} RPS — where the p99 goes\n")
    runs = {
        "round robin": run(ROUND_ROBIN, False),
        "scan avoid": run(SCAN_AVOID, True),
    }
    for name, trees in runs.items():
        print(render_critical_path(critical_path(trees), title=name))
        print()
    p99s = {name: span_p99s(trees) for name, trees in runs.items()}
    print("p99 per span (us):")
    print(f"{'span':>24} | " + " | ".join(f"{n:>12}" for n in p99s))
    for span in sorted(set().union(*p99s.values())):
        row = " | ".join(f"{p.get(span, 0.0):12.1f}" for p in p99s.values())
        print(f"{span:>24} | {row}")
    print()
    print("Only socket_wait moves: the policy's entire effect is where")
    print("datagrams queue, exactly as the matching abstraction intends.")


if __name__ == "__main__":
    main()

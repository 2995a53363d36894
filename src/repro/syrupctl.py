"""syrupctl: operator-facing inspection of a running machine.

The bpftool/`ghostctl` analogue — renders what syrupd knows about a live
machine: deployed policies (with run counts and costs), pinned maps (with
contents), hook sites and port rules, executor maps, scheduler state, and
— on machines running with ``metrics=True`` — the full observability
layer: per-``(app, hook)`` metric tables (:func:`render_stats`) and the
structured decision-event trace (:func:`render_events`).  Used
interactively from examples/notebooks and by operators debugging a policy
that "deployed fine but does nothing".

Also a CLI (``syrupctl`` console script / ``python -m repro stats``):
since there is no long-running daemon to attach to in a simulation,
the CLI drives a canned Figure-6-style RocksDB scenario with metrics
enabled and renders the requested view — the documented, runnable
demonstration of the stats surface (docs/observability.md walks through
the output).
"""

import argparse
import json
import sys

from repro.stats.results import Table

__all__ = [
    "dump_map",
    "main",
    "render_cores",
    "render_deployments",
    "render_events",
    "render_fleet",
    "render_health",
    "render_maps",
    "render_promote",
    "render_qdisc",
    "render_slo",
    "render_spans",
    "render_stats",
    "render_status",
    "render_tail",
    "render_tenants",
    "render_timeline",
    "run_cores_demo",
    "run_faults_demo",
    "run_fleet_demo",
    "run_promote_demo",
    "run_qdisc_demo",
    "run_slo_demo",
    "run_spans_demo",
    "run_stats_demo",
    "run_tenants_demo",
    "run_timeline_demo",
]


def render_deployments(machine):
    """One row per deployed policy, bpftool-prog-show style."""
    table = Table(
        "deployed policies",
        ["fd", "app", "hook", "name", "invocations", "insns",
         "cycle_estimate", "commits", "policy_errors"],
    )
    for row in machine.syrupd.status():
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    return table.render()


def render_health(machine):
    """Per-deployment lifecycle health (docs/robustness.md).

    One row per deployment: its state (``active`` / ``quarantined`` /
    ``fallback``), runtime-fault totals and the count inside the current
    sliding window, watchdog crash/restart totals, and rollbacks.
    """
    table = Table(
        f"deployment health t={machine.now:.0f}us",
        ["fd", "app", "hook", "state", "runtime_faults",
         "faults_in_window", "crashes", "restarts", "rollbacks"],
    )
    rows = machine.syrupd.health()
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    rendered = table.render()
    if not rows:
        rendered += "\n(no deployments)"
    injector = machine.faults
    if injector is not None:
        rendered += (
            f"\nfault plan: seed={injector.plan.seed} "
            f"specs={len(injector.plan)} injected={injector.injected}"
        )
    return rendered


def render_qdisc(machine):
    """Installed queueing disciplines, one row per attached queue.

    The ``tc qdisc show`` analogue for :mod:`repro.qdisc`: per hook and
    per target queue (socket sid / NIC rx queue / enclave runqueue) the
    backend, lifecycle state (``active`` or reverted-to-``fifo``),
    current depth, enqueue/dequeue/drop counters, and a summary of the
    rank distribution the rank function has assigned so far.
    """
    table = Table(
        f"queueing disciplines t={machine.now:.0f}us",
        ["fd", "app", "layer", "target", "backend", "state", "depth",
         "enqueues", "dequeues", "sched_drops", "overflow_drops",
         "evictions", "runtime_faults", "rank_mean", "rank_min",
         "rank_max"],
    )
    rows = machine.syrupd.qdiscs()
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    rendered = table.render()
    if not rows:
        rendered += "\n(no disciplines installed)"
    return rendered


def render_promote(machine):
    """Promotion pipeline state: one row per shadow/canary attempt.

    The ``syrupctl promote`` view (docs/robustness.md "Promotion
    lifecycle"): each candidate's current stage, decision-diff
    agreement, canary cohort exposure, fault counts, and the rejection
    or demotion reason, followed by the per-candidate stage history the
    lifecycle events recorded.
    """
    table = Table(
        f"promotion pipeline t={machine.now:.0f}us",
        ["name", "app", "hook", "stage", "reason", "canary_pct",
         "canary_enforced", "canary_faults", "agreement", "decisions",
         "shadow_faults"],
    )
    rows = machine.syrupd.promotions()
    for row in rows:
        diff = row["diff"]
        table.add(
            name=row["name"], app=row["app"], hook=row["hook"],
            stage=row["stage"], reason=row["reason"] or "-",
            canary_pct=row["canary_pct"],
            canary_enforced=row["canary_enforced"],
            canary_faults=row["canary_faults"],
            agreement=diff["agreement"], decisions=diff["decisions"],
            shadow_faults=diff["shadow_faults"],
        )
    rendered = table.render()
    if not rows:
        return rendered + "\n(no promotion attempts)"
    for row in rows:
        rendered += f"\n{row['name']}:"
        for step in row["history"]:
            rendered += (f"\n  {step['t_us']:>10.0f}us  "
                         f"{step['stage']:<8s} {step['reason']}")
        confusion = row["diff"]["confusion"]
        if confusion:
            pairs = ", ".join(f"{k}:{v}" for k, v in confusion.items())
            rendered += f"\n  decision diff: {pairs}"
    return rendered


def render_fleet(fleet, width=60):
    """The rack console: steering, staleness, liveness, load balance.

    Renders a :class:`repro.cluster.fleet.Fleet` — the header shows the
    installed steering policy and the sync-bus staleness window, then
    per-machine sparklines over *machine index* (served totals and
    instantaneous load) expose how evenly the policy spread the rack,
    and a footer reports failover activity and the client-observed tail.
    """
    view = fleet.fleet_view()
    staleness = view["staleness_us"]
    lines = [
        f"== syrup fleet t={fleet.engine.now:.0f}us ==",
        (
            f"machines={view['machines']} x{view['workers_per_machine']} "
            f"workers  steering={view['steering']}  "
            f"sync={view['sync_delay_us']:g}+{view['sync_interval_us']:g}us"
            + (f"  staleness={staleness:.0f}us" if staleness is not None
               else "")
        ),
    ]
    if view["down"]:
        lines.append(f"DOWN: machines {view['down']}")
    lines.append(
        f"offered={view['offered']}  completed={view['completed']}  "
        f"dropped={view['dropped']}  resteers={view['resteers']}  "
        f"outstanding={view['outstanding']}"
    )
    served = view["served"]
    lines.append(f"served/machine   {_sparkline(served, width)}  "
                 f"min={min(served)} max={max(served)}")
    lines.append(f"load now         {_sparkline(view['load_now'], width)}  "
                 f"total={sum(view['load_now'])}")
    p50, p99 = view["p50_us"], view["p99_us"]
    if p50 == p50:  # not NaN
        lines.append(f"latency  p50={p50:.0f}us  p99={p99:.0f}us")
    return "\n".join(lines)


def render_slo(machine):
    """Per-objective SLO table plus the signal-bus footer.

    One row per objective from :meth:`repro.obs.slo.SloTracker.snapshot`
    — lifetime compliance, short/long-window burn rates, remaining error
    budget, and the alert state — followed by what the
    :class:`~repro.core.signals.SignalBus` last observed (tick count and
    the latest scalar signal values).
    """
    rows = machine.syrupd.slo()
    if not rows:
        return (
            "no SLO objectives on this machine "
            "(construct it with Machine(slo=True) and register "
            "objectives on machine.slo)"
        )
    table = Table(
        f"syrup slo t={machine.now:.0f}us",
        ["name", "kind", "target", "good", "total", "compliance",
         "burn_short", "burn_long", "budget_remaining", "state"],
    )
    for row in rows:
        table.add(**{k: v for k, v in row.items() if k in table.columns})
    view = machine.syrupd.signals()
    footer = (
        f"signals: interval={view['interval_us']:g}us "
        f"ticks={view['ticks']} "
        f"controllers={view['controllers']}"
    )
    last = view["last"]
    if last:
        footer += "\nlast: " + "  ".join(
            f"{name}={value:g}" if isinstance(value, float)
            else f"{name}={value}"
            for name, value in last.items()
        )
    return table.render() + "\n" + footer


def render_tenants(machine):
    """The multi-tenant console: per-tenant bills plus the blame matrix.

    One row per tenant from the
    :class:`~repro.obs.accounting.TenantAccountant` ledgers — CPU
    service time, policy-execution overhead, per-layer queueing delay,
    completions and drops — followed by the pairwise interference
    matrix ("A imposed X us on B at layer L", diagonal = self-queueing)
    and each tenant's worst aggressor.
    """
    acct = machine.obs.acct
    if acct is None:
        return (
            "tenant accounting disabled on this machine "
            "(construct it with Machine(accounting=True))"
        )
    snap = acct.snapshot()
    table = Table(
        f"syrup tenants t={machine.now:.0f}us",
        ["tenant", "completed", "drops", "cpu_us", "policy_us",
         "nic_wait_us", "softirq_wait_us", "socket_wait_us",
         "qdisc_wait_us", "runq_wait_us"],
    )
    for entry in snap["tenants"]:
        wait = entry["wait_us"]
        table.add(
            tenant=entry["tenant"],
            completed=entry["completed"],
            drops=sum(entry["drops"].values()),
            cpu_us=round(entry["cpu_service_us"], 1),
            policy_us=round(entry["policy_exec_us"], 1),
            nic_wait_us=round(wait["nic"], 1),
            softirq_wait_us=round(wait["softirq"], 1),
            socket_wait_us=round(wait["socket"], 1),
            qdisc_wait_us=round(wait["qdisc"], 1),
            runq_wait_us=round(wait["runqueue"], 1),
        )
    rendered = table.render()
    if not snap["tenants"]:
        return rendered + "\n(no tenant-labeled traffic)"
    blame = snap["blame"]
    if blame:
        rendered += "\n== blame matrix (victim <- aggressor, us) =="
        for victim in sorted(blame):
            for aggressor in sorted(blame[victim]):
                for layer, us in sorted(blame[victim][aggressor].items()):
                    marker = " (self)" if victim == aggressor else ""
                    rendered += (f"\n{victim:<10} <- {aggressor:<10} "
                                 f"{layer:<9} {us:>12.1f}{marker}")
        for entry in snap["tenants"]:
            top = acct.blame.top_aggressor(entry["tenant"])
            if top is not None:
                aggressor, layer, us, share = top
                rendered += (
                    f"\nworst aggressor for {entry['tenant']}: "
                    f"{aggressor} at {layer} "
                    f"({us:.0f}us, {100.0 * share:.0f}% of that layer)"
                )
    return rendered


def render_cores(machine, width=64):
    """The elastic-core console: per-class grants plus occupancy lanes.

    One row per scheduling class registered with the
    :class:`~repro.kernel.arbiter.CoreArbiter` — floor, currently held
    cores, cumulative grants/revocations, time-averaged occupancy (in
    cores) and instantaneous pressure — followed by one ASCII lane per
    pool core showing which class owned it over the run (legend letter
    per class, ``.`` = unowned / before the recorded window).
    """
    arbiter = getattr(machine, "arbiter", None)
    if arbiter is None:
        return (
            "no core arbiter on this machine (construct it with "
            "Machine(scheduler='elastic', elastic=ElasticSpec()...))"
        )
    snap = arbiter.view()
    now = max(snap["now_us"], 1e-9)
    table = Table(
        f"syrup cores t={snap['now_us']:.0f}us "
        f"pool={len(snap['pool'])} moves={snap['moves']} "
        f"stalls={snap['stalls']}",
        ["class", "floor", "cores", "grants", "revocations",
         "occ_cores", "pressure"],
    )
    letters = {}
    for index, entry in enumerate(snap["classes"]):
        letters[entry["name"]] = chr(ord("A") + index % 26)
        table.add(**{
            "class": entry["name"],
            "floor": entry["floor"],
            "cores": ",".join(str(c) for c in entry["cores"]) or "-",
            "grants": entry["grants"],
            "revocations": entry["revocations"],
            "occ_cores": round(entry["occupancy_us"] / now, 2),
            "pressure": entry["pressure"],
        })
    lines = [table.render(), "", "== occupancy timeline =="]
    lines.append("  ".join(
        f"{letter}={name}" for name, letter in letters.items()
    ) + "  .=unowned")
    bucket = now / width
    for cid in snap["pool"]:
        segments = snap["timeline"].get(cid, [])
        lane = []
        for col in range(width):
            t = (col + 0.5) * bucket
            char = "."
            for seg in segments:
                if seg["start_us"] <= t < seg["end_us"]:
                    char = letters.get(seg["owner"], "?")
                    break
            lane.append(char)
        stalled = " [stalled]" if cid in snap["stalled"] else ""
        lines.append(f"core {cid:>2} |{''.join(lane)}|{stalled}")
    return "\n".join(lines)


def render_maps(machine, max_entries=8):
    """Every pinned map: path, placement, size, and leading entries."""
    registry = machine.syrupd.registry
    lines = ["== pinned maps =="]
    for path in registry.paths():
        syrup_map = registry._pinned[path]
        entries = syrup_map.items()
        preview = ", ".join(f"{k}:{v}" for k, v in entries[:max_entries])
        if len(entries) > max_entries:
            preview += ", ..."
        lines.append(
            f"{path}  [{syrup_map.bpf_map.kind}, "
            f"{len(entries)}/{syrup_map.bpf_map.max_entries}, "
            f"{syrup_map.placement}]  {{{preview}}}"
        )
    if len(lines) == 1:
        lines.append("(none)")
    return "\n".join(lines)


def dump_map(machine, app_name, map_name):
    """Full contents of one app's pinned map, as a dict."""
    registry = machine.syrupd.registry
    path = registry.pin_path(app_name, map_name)
    syrup_map = registry.open(path, app_name)
    return dict(syrup_map.items())


def _hook_lines(machine):
    lines = ["== hook sites =="]
    sites = machine.syrupd._sites
    if not sites:
        lines.append("(none provisioned)")
    for hook, site in sorted(sites.items()):
        ports = sorted(site._port_rules)
        lines.append(
            f"{hook}: ports={ports} pass={site.pass_decisions} "
            f"drop={site.drop_decisions}"
        )
    return lines


def _core_lines(machine):
    lines = ["== cores =="]
    now = machine.now or 1.0
    for core in machine.cores:
        who = core.thread.name if core.thread else "idle"
        tag = " [ghOSt agent]" if core is machine.agent_core else ""
        lines.append(
            f"core {core.cid}: {who}  util={core.busy_us / now:.1%}{tag}"
        )
    return lines


def render_status(machine):
    """The full picture: deployments, maps, hooks, cores, drops."""
    sections = [
        f"machine {machine.config.name!r} t={machine.now:.0f}us "
        f"sched={machine.scheduler_kind}",
        render_deployments(machine),
        render_maps(machine),
        "\n".join(_hook_lines(machine)),
        "\n".join(_core_lines(machine)),
        f"== drops == {machine.netstack.drops}",
    ]
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Observability surface (`syrupctl stats`, docs/observability.md)
# ----------------------------------------------------------------------
def _fmt_metric(metric):
    if metric.kind == "histogram":
        s = metric.summary()
        return (
            f"n={s['count']} mean={s['mean']:.2f} p50={s['p50']:.2f} "
            f"p99={s['p99']:.2f} max={s['max']:.2f}"
        )
    return metric.value


def render_stats(machine):
    """Per-app per-hook metric summary of an observability-enabled machine.

    One row per metric series, grouped by (app, scope) where scope is a
    hook name or subsystem (``maps`` / ``syrupd`` / ``thread_sched``).
    """
    obs = machine.obs
    if not obs.enabled:
        return (
            "observability disabled on this machine "
            "(construct it with Machine(metrics=True))"
        )
    table = Table(
        f"syrup stats t={machine.now:.0f}us",
        ["app", "scope", "metric", "value", "updated_us"],
    )
    registry = obs.registry
    for app, scope, name in registry.series():
        metric = registry.get(app, scope, name)
        updated = metric.updated_at
        table.add(
            app=app, scope=scope, metric=name, value=_fmt_metric(metric),
            updated_us=None if updated is None else round(updated, 1),
        )
    events = obs.events
    footer = (
        f"events: {events.emitted} emitted, {len(events)} buffered, "
        f"{events.dropped} dropped (capacity {events.capacity})"
    )
    return table.render() + "\n" + footer


# ----------------------------------------------------------------------
# Time-series surface (`syrupctl timeline`, repro.obs.timeseries)
# ----------------------------------------------------------------------
#: Sparkline intensity ramp, lowest to highest.
_SPARK = " .:-=+*#%@"


def _sparkline(values, width, pad=0):
    """One line of ASCII intensity characters for a numeric series.

    ``pad`` left-pads with spaces (series born mid-run stay aligned to
    the shared time axis).  Non-negative series scale from a zero
    baseline so "nothing" reads as blank and steady values as solid.
    """
    if not values:
        return " " * (pad + width)
    if len(values) > width:
        # resample: mean per column keeps rates honest
        per_col = len(values) / width
        resampled = []
        for col in range(width):
            lo = int(col * per_col)
            hi = max(lo + 1, int((col + 1) * per_col))
            chunk = values[lo:hi]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
    vmin = min(min(values), 0)
    vmax = max(values)
    span = (vmax - vmin) or 1.0
    top = len(_SPARK) - 1
    return " " * pad + "".join(
        _SPARK[int((v - vmin) / span * top)] for v in values
    )


def _series_values(series):
    """Numeric values for sparklining: counters/gauges as-is, hist p99."""
    if series.kind == "histogram":
        return series.values(field="p99")
    return series.values()


def render_timeline(machine, app=None, scope=None, width=60,
                    include_zero=False):
    """Recorded time series as labeled sparklines, one row per metric.

    Counters show per-interval deltas, gauges sampled values, histograms
    the cumulative p99 at each sample.  All-zero series are skipped
    unless ``include_zero``; filter with ``app``/``scope``.
    """
    recorder = machine.obs.recorder
    if not recorder.enabled:
        return (
            "time-series recording disabled on this machine (construct "
            "it with Machine(metrics=True, timeseries=<interval_us>))"
        )
    keys = [
        key for key in recorder.keys()
        if (app is None or key[0] == app)
        and (scope is None or key[1] == scope)
    ]
    if not keys:
        return "(no recorded series)"
    # span from the longest series (ones born mid-run start later)
    longest = max((recorder.series(*key) for key in keys), key=len)
    times = longest.times()
    header = (
        f"== syrup timeline ==  interval={recorder.interval_us:g}us  "
        f"samples={len(times)}  span=[{times[0]:.0f}, {times[-1]:.0f}]us"
        if times else "== syrup timeline ==  (no samples yet)"
    )
    lines = [header]
    label_width = max(len("/".join(key)) for key in keys)
    n_cols = min(len(times), width) or 1
    for key in keys:
        series = recorder.series(*key)
        values = _series_values(series)
        if not include_zero and not any(values):
            continue
        suffix = ".p99" if series.kind == "histogram" else ""
        label = "/".join(key) + suffix
        peak = max(values) if values else 0
        # align to the shared axis: late-born series are left-padded
        pad = round(n_cols * (1 - len(series) / len(times))) if times else 0
        lines.append(
            f"{label:<{label_width + 4}} max={peak:>10.6g} "
            f"|{_sparkline(values, n_cols - pad, pad=pad)}|"
        )
    if len(lines) == 1:
        lines.append("(all series zero; pass include_zero=True to see them)")
    return "\n".join(lines)


def render_events(machine, last=20, kind=None, since=None):
    """The tail of the structured event trace, one JSON object per line.

    ``kind`` filters by event kind, ``since`` keeps only events stamped
    at or after that simulated time (us), ``last`` caps how many of the
    trailing matches are printed.
    """
    obs = machine.obs
    if not obs.enabled:
        return (
            "observability disabled on this machine "
            "(construct it with Machine(metrics=True))"
        )
    if kind is not None or since is not None:
        events = obs.events.events(kind=kind, since=since)[-last:]
    else:
        events = obs.events.tail(last)
    return "\n".join(json.dumps(event, sort_keys=True) for event in events)


# ----------------------------------------------------------------------
# Causal-span surface (`syrupctl spans` / `syrupctl tail`, repro.obs.spans)
# ----------------------------------------------------------------------
def render_spans(machine, last=10):
    """Sampler state plus the last ``last`` completed request trees.

    One line per request — rid, total latency, completion state — then
    one indented line per span with its duration and attributes.
    """
    tracer = machine.obs.spans
    if tracer is None:
        return (
            "span tracing disabled on this machine "
            "(construct it with Machine(spans=<sample-every>))"
        )
    lines = [
        f"== syrup spans ==  every={tracer.sample_every} "
        f"seen={tracer.seen} sampled={tracer.sampled} "
        f"completed={tracer.completed_count} aborted={tracer.aborted_count} "
        f"buffered={len(tracer)}"
    ]
    for tree in tracer.trees()[-last:]:
        total = tree["end"] - tree["start"]
        state = ("complete" if tree["complete"]
                 else f"aborted:{tree['abort_reason']}")
        lines.append(
            f"rid={tree['rid']} t=[{tree['start']:.1f}, {tree['end']:.1f}]us "
            f"total={total:.2f}us {state}"
        )
        for span in tree["spans"]:
            dur = span["end"] - span["start"]
            attrs = span.get("attrs")
            suffix = f"  {attrs}" if attrs else ""
            lines.append(f"  {span['name']:<24} {dur:>10.3f}us{suffix}")
    if len(lines) == 1:
        lines.append("(no sampled requests)")
    return "\n".join(lines)


def render_tail(machine, lo_pct=50.0, hi_pct=99.0):
    """The p50-vs-p99 critical-path table for the sampled requests."""
    from repro.obs.tail import critical_path, render_critical_path

    tracer = machine.obs.spans
    if tracer is None:
        return (
            "span tracing disabled on this machine "
            "(construct it with Machine(spans=<sample-every>))"
        )
    analysis = critical_path(
        tracer.trees(complete=True), lo_pct=lo_pct, hi_pct=hi_pct
    )
    return render_critical_path(
        analysis, title=f"syrup tail t={machine.now:.0f}us"
    )


def run_stats_demo(load=120_000, duration_ms=100.0, seed=7):
    """Drive the canned observability demo: one Figure-6-style point.

    A RocksDB server under the 99.5% GET / 0.5% SCAN mix with the SCAN
    Avoid policy at the Socket Select hook and metrics enabled.  Returns
    the finished machine for rendering.
    """
    from repro.experiments.runner import RocksDbTestbed
    from repro.policies.builtin import SCAN_AVOID
    from repro.workload.mixes import GET_SCAN_995_005

    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, "socket_select", {"NUM_THREADS": 6}),
        mark_scans=True, seed=seed, metrics=True,
    )
    duration_us = duration_ms * 1000.0
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.25)
    gen.start()
    testbed.machine.run()
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_spans_demo(load=120_000, duration_ms=100.0, seed=7, spans_every=1):
    """Drive the causal-span demo: the stats scenario with tracing on.

    The same Figure-6-style SCAN Avoid point as :func:`run_stats_demo`,
    with head-sampled span tracing (``spans_every`` keeps every Nth
    request) *and* metrics enabled, so decision spans carry event
    sequence numbers linking them back to the decision trace.  Returns
    the finished machine for rendering (``syrupctl spans`` /
    ``syrupctl tail``).
    """
    from repro.experiments.runner import RocksDbTestbed
    from repro.policies.builtin import SCAN_AVOID
    from repro.workload.mixes import GET_SCAN_995_005

    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, "socket_select", {"NUM_THREADS": 6}),
        mark_scans=True, seed=seed, metrics=True,
        spans=spans_every, spans_capacity=1 << 16,
    )
    duration_us = duration_ms * 1000.0
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.25)
    gen.start()
    testbed.machine.run()
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_faults_demo(load=100_000, duration_ms=80.0, seed=3,
                    fault_rate=0.05):
    """Drive the canned robustness demo: a fault plan vs the lifecycle.

    The Figure-6 SCAN Avoid point with a seeded
    :class:`repro.faults.FaultPlan` injecting runtime faults into the
    Socket Select program; the default
    :class:`repro.core.health.HealthPolicy` quarantines the deployment
    once the sliding-window threshold breaks, so ``syrupctl health``
    shows a ``quarantined`` row and the event trace carries the
    ``fault_injected`` → ``runtime_fault`` → ``quarantine`` sequence.
    Returns the finished machine for rendering.
    """
    from repro.core.health import HealthPolicy
    from repro.experiments.runner import RocksDbTestbed
    from repro.faults import FaultPlan
    from repro.policies.builtin import SCAN_AVOID
    from repro.workload.mixes import GET_SCAN_995_005

    plan = FaultPlan(seed=11).vmfault(
        fault_rate, app="rocksdb", hook="socket_select"
    )
    testbed = RocksDbTestbed(
        policy=(SCAN_AVOID, "socket_select", {"NUM_THREADS": 6}),
        mark_scans=True, seed=seed, metrics=True, faults=plan,
        health=HealthPolicy(window_us=10_000.0, max_faults=5),
    )
    duration_us = duration_ms * 1000.0
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.25)
    gen.start()
    testbed.machine.run()
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_qdisc_demo(load=240_000, duration_ms=100.0, seed=3):
    """Drive the canned queueing-discipline demo: one figure_order point.

    The RocksDB bimodal mix with the SRPT-by-request-size rank function
    (:data:`repro.qdisc.policies.SRPT_BY_SIZE`) deployed on the exact
    PIFO backend at every socket backlog, metrics enabled, at a load
    where queues actually form.  Returns the finished machine for
    rendering (``syrupctl qdisc`` / ``python -m repro qdisc``).
    """
    from repro.experiments.runner import RocksDbTestbed
    from repro.qdisc.policies import SRPT_BY_SIZE
    from repro.workload.mixes import GET_SCAN_995_005

    testbed = RocksDbTestbed(
        qdisc=(SRPT_BY_SIZE, "socket", "pifo"), mark_sizes=True,
        seed=seed, metrics=True,
    )
    duration_us = duration_ms * 1000.0
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.25)
    gen.start()
    testbed.machine.run()
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_timeline_demo(load=6_000, duration_ms=600.0, seed=5,
                      interval_ms=10.0):
    """Drive the canned time-series demo: the dynamic Figure-8 scenario.

    50/50 GET/SCAN on Vanilla Linux with SCAN Avoid deployed *mid-run*
    (:func:`repro.experiments.figure8.run_figure8_dynamic`), metrics and
    the flight recorder enabled — the policy switch shows up as hook
    decision rates jumping from zero halfway through the timeline.
    Returns the finished machine for rendering.
    """
    from repro.experiments.figure8 import run_figure8_dynamic

    testbed, gen = run_figure8_dynamic(
        load=load, duration_us=duration_ms * 1000.0, seed=seed,
        metrics=True, timeseries=interval_ms * 1000.0,
    )
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_slo_demo(load=240_000, duration_ms=120.0, seed=3):
    """Drive the canned closed-loop demo: one adaptive figure point.

    One ``figure_adaptive`` load point past the knee with the full
    control loop — streaming sketches and SLO objectives sampled by the
    :class:`~repro.core.signals.SignalBus`, burn-rate-driven shedding,
    SRPT threshold auto-tuning, and blame steering — so ``syrupctl slo``
    shows live burn rates, budget spend, and the controllers' last
    actuation.  Returns the finished machine for rendering.
    """
    from repro.experiments.figure_adaptive import _build, _wire_adaptive
    from repro.workload.mixes import GET_SCAN_995_005

    duration_us = duration_ms * 1000.0
    testbed = _build("adaptive", seed)
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.25)
    gen.start()
    _wire_adaptive(testbed, gen, duration_us, shedding=True)
    testbed.machine.run()
    testbed.machine.demo_generator = gen
    return testbed.machine


def run_promote_demo(load=260_000, duration_ms=300.0, seed=3):
    """Drive the canned promotion demo: two candidates, one machine.

    A figure_canary-style run where the *broken* SRPT variant is
    submitted first (shadow at 80 ms, auto-rejected in its canary
    window) and the *good* tiered variant second (shadow at 170 ms,
    auto-promoted to active and through probation) — so
    ``syrupctl promote`` renders a rejected row and an active row with
    their full stage histories side by side.  Returns the finished
    machine for rendering.
    """
    from repro.experiments.figure_canary import (
        CANDIDATES, GATES, SHORT_US, _build, _wire,
    )
    from repro.workload.mixes import GET_SCAN_995_005

    duration_us = duration_ms * 1000.0
    testbed = _build(seed)
    machine = testbed.machine
    gen = testbed.drive(load, GET_SCAN_995_005, duration_us,
                        warmup_us=duration_us * 0.2).start()
    holder = {}
    _wire(testbed, gen, duration_us, holder)

    def submit(name):
        holder["record"] = testbed.app.deploy_shadow(
            CANDIDATES[name], layer="socket",
            constants={"SHORT_US": SHORT_US}, name=name, **GATES,
        )

    machine.engine.at(duration_us * 0.27, lambda: submit("broken"))
    machine.engine.at(duration_us * 0.57, lambda: submit("good"))
    machine.run()
    machine.demo_generator = gen
    return machine


def run_tenants_demo(load=60_000, duration_ms=120.0, seed=3,
                     aggressor_load=420_000):
    """Drive the canned multi-tenant demo: one blame_shed point.

    The ``figure_interference`` closed loop — victim *alpha* under an
    identical-looking GET flood from *bravo*, per-tenant accounting on,
    the :class:`~repro.obs.interference.NoisyNeighborDetector` flagging
    the aggressor from windowed blame, and the
    :class:`~repro.obs.interference.TenantShedController` shedding only
    bravo — so ``syrupctl tenants`` renders both tenants' bills and a
    blame matrix fingering bravo at the socket layer.  Returns the
    finished machine for rendering.
    """
    from repro.experiments.figure_interference import run_variant

    duration_us = duration_ms * 1000.0
    testbed, gen_alpha, _gen_bravo, detector = run_variant(
        "blame_shed", load, aggressor_load, duration_us,
        duration_us * 0.25, seed,
    )
    machine = testbed.machine
    machine.demo_generator = gen_alpha
    machine.demo_detector = detector
    return machine


def run_cores_demo(load=25_000, duration_ms=200.0, seed=5):
    """Drive the canned elastic-arbitration demo: one figure_oversub point.

    The ``elastic`` variant of ``figure_oversub`` — *search* (a ghOSt
    enclave) and *batch* (CFS) sharing the arbitrated core pool under
    anti-correlated flash crowds, with the
    :class:`~repro.kernel.arbiter.ElasticCoreController` chasing the
    bursts — so ``syrupctl cores`` renders grants moving back and
    forth between the classes.  ``load`` is each app's baseline RPS.
    Returns the finished machine for rendering.
    """
    from repro.experiments.figure_oversub import PEAK_FACTOR, run_variant

    duration_us = duration_ms * 1000.0
    machine, gen_search, _gen_batch, controller = run_variant(
        "elastic", load, PEAK_FACTOR, duration_us, duration_us * 0.1, seed,
    )
    machine.demo_generator = gen_search
    machine.demo_controller = controller
    return machine


def run_fleet_demo(load=500_000, duration_ms=60.0, seed=7,
                   num_machines=48, steering="power_of_two"):
    """Drive the canned rack demo: one figure_fleet-style run.

    ``num_machines`` aggregate machines under a diurnal open-loop load
    from a million sampled users, power-of-two-choices steering at the
    ToR, metrics + flight recorder on, and a mid-run machine kill (with
    reboot) so the failover path shows up in the console.  Returns the
    finished :class:`repro.cluster.fleet.Fleet` for rendering
    (``syrupctl fleet`` / ``python -m repro fleet``).
    """
    from repro.cluster.fleet import Fleet
    from repro.faults import FaultPlan

    duration_us = duration_ms * 1000.0
    plan = FaultPlan(seed=11).machine_kill(
        num_machines // 3, at_us=duration_us * 0.4,
        restore_at_us=duration_us * 0.75,
    )
    fleet = Fleet(
        num_machines=num_machines, seed=seed, steering=steering,
        metrics=True, timeseries=True, faults=plan,
        warmup_us=duration_us * 0.2,
    )
    fleet.drive(
        duration_us=duration_us, rps=load, num_users=1_000_000,
        diurnal_period_us=duration_us, diurnal_depth=0.4,
    )
    fleet.run()
    return fleet


def main(argv=None):
    """CLI: ``syrupctl {stats,status,maps,events,timeline,health,spans,
    tail,qdisc,fleet,slo,promote,tenants}``."""
    parser = argparse.ArgumentParser(
        prog="syrupctl",
        description=(
            "Inspect a Syrup machine's observability layer.  Runs a "
            "canned RocksDB demo scenario (metrics enabled) and renders "
            "the requested view — the steady Figure-6-style point for "
            "stats/status/maps/events, the dynamic Figure-8 policy "
            "switch for timeline, a fault-injection run for health; "
            "see docs/observability.md and docs/robustness.md."
        ),
    )
    parser.add_argument(
        "view",
        choices=["stats", "status", "maps", "events", "timeline", "health",
                 "spans", "tail", "qdisc", "fleet", "slo", "promote",
                 "tenants", "cores"],
        help="which surface to render",
    )
    parser.add_argument("--load", type=int, default=None,
                        help="demo offered load (RPS)")
    parser.add_argument("--duration-ms", type=float, default=None,
                        help="demo run length in milliseconds")
    parser.add_argument("--seed", type=int, default=None,
                        help="demo RNG seed")
    parser.add_argument("--last", type=int, default=20,
                        help="events/spans: how many trailing entries")
    parser.add_argument("--kind", type=str, default=None,
                        help="events: filter by event kind")
    parser.add_argument("--since", type=float, default=None, metavar="US",
                        help="events: only events at/after this sim time")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="events: cap printed events (overrides --last)")
    parser.add_argument("--spans-every", type=int, default=1, metavar="N",
                        help="spans/tail: head-sample every Nth request")
    parser.add_argument("--export-trace", type=str, default=None,
                        metavar="PATH",
                        help=("spans/tail: also export the sampled spans "
                              "as a Chrome/Perfetto trace"))
    parser.add_argument("--json", action="store_true",
                        help="print the view's raw snapshot as JSON "
                             "(every view supports it)")
    parser.add_argument("--interval-ms", type=float, default=10.0,
                        help="timeline: flight-recorder sample interval")
    parser.add_argument("--app", type=str, default=None,
                        help="timeline: only series owned by this app")
    parser.add_argument("--scope", type=str, default=None,
                        help="timeline: only series under this hook/scope")
    parser.add_argument("--export-events", type=str, default=None,
                        metavar="PATH",
                        help="also export the full event ring as JSON lines")
    parser.add_argument("--openmetrics", type=str, default=None,
                        metavar="PATH",
                        help=("also export the metrics registry in "
                              "OpenMetrics text format"))
    args = parser.parse_args(argv)
    if args.spans_every < 1:
        parser.error("--spans-every must be >= 1")

    if args.view == "timeline":
        kwargs = {"interval_ms": args.interval_ms}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_timeline_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.obs.recorder.snapshot(), indent=2))
        else:
            print(render_timeline(machine, app=args.app, scope=args.scope))
    elif args.view == "health":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_faults_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.syrupd.health(), indent=2))
        else:
            print(render_health(machine))
    elif args.view == "qdisc":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_qdisc_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.syrupd.qdiscs(), indent=2,
                             sort_keys=True))
        else:
            print(render_qdisc(machine))
    elif args.view == "slo":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_slo_demo(**kwargs)
        if args.json:
            print(json.dumps(
                {"slo": machine.syrupd.slo(),
                 "signals": machine.syrupd.signals()},
                indent=2, sort_keys=True,
            ))
        else:
            print(render_slo(machine))
    elif args.view == "promote":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_promote_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.syrupd.promotions(), indent=2,
                             sort_keys=True))
        else:
            print(render_promote(machine))
    elif args.view == "fleet":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        fleet = run_fleet_demo(**kwargs)
        if args.json:
            print(json.dumps(fleet.fleet_view(), indent=2, sort_keys=True))
        else:
            print(render_fleet(fleet))
        return 0
    elif args.view == "tenants":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_tenants_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.syrupd.tenants(), indent=2,
                             sort_keys=True))
        else:
            print(render_tenants(machine))
    elif args.view == "cores":
        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_cores_demo(**kwargs)
        if args.json:
            print(json.dumps(machine.arbiter.view(), indent=2,
                             sort_keys=True))
        else:
            print(render_cores(machine))
    elif args.view in ("spans", "tail"):
        kwargs = {"spans_every": args.spans_every}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.duration_ms is not None:
            kwargs["duration_ms"] = args.duration_ms
        if args.seed is not None:
            kwargs["seed"] = args.seed
        machine = run_spans_demo(**kwargs)
        if args.view == "spans":
            if args.json:
                print(json.dumps(machine.obs.spans.trees()[-args.last:],
                                 indent=2, sort_keys=True))
            else:
                print(render_spans(machine, last=args.last))
        elif args.json:
            from repro.obs.tail import critical_path

            analysis = critical_path(machine.obs.spans.trees(complete=True))
            print(json.dumps(analysis, indent=2, sort_keys=True))
        else:
            print(render_tail(machine))
        if args.export_trace:
            n = machine.obs.spans.to_chrome_trace(args.export_trace)
            print(f"wrote {n} trace events to {args.export_trace}",
                  file=sys.stderr)
    else:
        machine = run_stats_demo(
            load=args.load if args.load is not None else 120_000,
            duration_ms=(args.duration_ms
                         if args.duration_ms is not None else 100.0),
            seed=args.seed if args.seed is not None else 7,
        )
        if args.view == "stats":
            if args.json:
                print(json.dumps(machine.obs.snapshot(), indent=2))
            else:
                print(render_stats(machine))
        elif args.view == "status":
            if args.json:
                print(json.dumps(machine.syrupd.status(), indent=2,
                                 sort_keys=True))
            else:
                print(render_status(machine))
        elif args.view == "maps":
            if args.json:
                registry = machine.syrupd.registry
                print(json.dumps(
                    {path: dict(registry._pinned[path].items())
                     for path in registry.paths()},
                    indent=2, sort_keys=True,
                ))
            else:
                print(render_maps(machine))
        else:
            last = args.limit if args.limit is not None else args.last
            if args.json:
                events = machine.obs.events.events(
                    kind=args.kind, since=args.since
                )[-last:]
                print(json.dumps(events, indent=2, sort_keys=True))
            else:
                print(render_events(machine, last=last, kind=args.kind,
                                    since=args.since))
    if args.export_events:
        n = machine.obs.events.to_jsonl(args.export_events)
        print(f"wrote {n} events to {args.export_events}", file=sys.stderr)
    if args.openmetrics:
        from repro.obs.export import write_openmetrics

        n = write_openmetrics(machine.obs.registry, args.openmetrics)
        print(f"wrote {n} OpenMetrics lines to {args.openmetrics}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

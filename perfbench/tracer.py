"""Outside-in span tracer for the benchmark's traced run.

:func:`install` replaces each layer's entry-point methods on their
classes with timing wrappers.  It runs before the workload is staged, so
bound methods captured while the simulator is built (``nic.deliver``,
engine callbacks, socket wake-ups) resolve to the wrappers too.  Nothing
in ``src/`` is edited and no simulation state is touched: a wrapper
calls the original with the same arguments and returns its result.

Every wrapped call records one span: its kind (``Class.method``), host
start and end (``time.perf_counter``), the span that was open when it
started (its parent), and the request id when an argument carries a
packet or request.  Spans stay in memory in flat arrays and are written
out by :meth:`Tracer.dump` after the run.

A layer's self time is the time inside its spans minus the time covered
by their child spans, accumulated as spans close.  ``sim`` is the rest:
the timed run minus the inclusive time of every top-level span, i.e. the
engine loop plus anything no wrapper covers.  By construction the self
times of all layers add up to the traced run's wall time.
"""

import functools
import importlib
import json
import time
from array import array

import numpy

__all__ = ["COUNTS", "ENTRY_POINTS", "LAYERS", "Tracer", "install"]

#: Layers in report order; names follow the simulator's modules.
#: ``sim`` has no entry points: it is what the others leave.  ``obs.acct``
#: (tenant accounting and the blame matrix it feeds) is kept apart from
#: the rest of ``obs`` so its share can be reported on its own.
LAYERS = (
    "sim", "workload", "net", "kernel.netstack", "kernel.sockets",
    "core.hooks", "ebpf", "kernel.sched", "kernel.arbiter", "kernel.cpu",
    "ghost", "apps", "obs", "obs.acct", "core.signals", "cluster",
)

_ACCT_SEAMS = (
    "nic_arrival", "nic_delivered", "softirq_begin", "softirq_end",
    "socket_enqueued", "socket_dequeued", "qdisc_enqueued",
    "qdisc_dequeued", "thread_runnable", "service_begin", "service_end",
    "policy_exec", "drop", "book_core_occupancy",
)

#: ``(layer, module, owner, attributes, item_arg)``.  ``owner`` is a
#: class name, or None for module-level functions (patched in the
#: namespace that calls them).  ``item_arg`` is the index in ``args``
#: (``self`` is 0) of the packet or request the call carries, or None.
#: Each attribute must be defined on the owner itself, so a rename in
#: the simulator fails loudly here instead of going unmeasured.
ENTRY_POINTS = (
    ("workload", "repro.workload.generator", "OpenLoopGenerator",
     ("_arrival", "_send_one"), None),
    ("workload", "repro.workload.generator", "OpenLoopGenerator",
     ("deliver_response", "_client_receive"), 1),
    ("net", "repro.net.nic", "Nic", ("receive",), 1),
    ("net", "repro.net.nic", "Nic", ("_irq_deliver",), 2),
    ("net", "repro.net.nic", "Nic", ("_irq_drain",), None),
    ("kernel.netstack", "repro.kernel.netstack", "NetStack",
     ("deliver_from_nic", "_deliver_af_xdp"), 2),
    ("kernel.netstack", "repro.kernel.netstack", "NetStack",
     ("_protocol_done",), 1),
    ("kernel.sockets", "repro.kernel.sockets", "UdpSocket",
     ("enqueue",), 1),
    ("kernel.sockets", "repro.kernel.sockets", "UdpSocket", ("pop",), None),
    ("core.hooks", "repro.core.hooks", "HookSite",
     ("decide", "cost_us"), 1),
    ("ebpf", "repro.ebpf.program", "LoadedProgram", ("run",), 1),
    ("ebpf", "repro.core.syrupd", None,
     ("compile_policy", "load_program"), None),
    ("kernel.sched", "repro.kernel.sched", "ThreadScheduler",
     ("_run_end", "preempt"), None),
    ("kernel.sched", "repro.kernel.sched", "PinnedScheduler",
     ("wake",), None),
    ("kernel.sched", "repro.kernel.cfs", "CfsScheduler",
     ("wake", "add_core", "remove_core"), None),
    ("kernel.arbiter", "repro.kernel.arbiter", "CoreArbiter",
     ("grant", "revoke", "move", "stall", "_unstall"), None),
    ("kernel.arbiter", "repro.kernel.arbiter", "ElasticCoreController",
     ("__call__",), None),
    ("kernel.cpu", "repro.kernel.cpu", "FifoServer",
     ("submit", "_finish"), None),
    ("ghost", "repro.ghost.agent", "GhostAgent",
     ("notify", "_drain", "_decide", "_after_work", "_redecide",
      "_commit_effect"), None),
    ("ghost", "repro.ghost.sched", "GhostScheduler",
     ("wake", "commit", "_run_end", "add_core", "remove_core"), None),
    ("apps", "repro.apps.server", "SocketWorkSource", ("pull",), None),
    ("apps", "repro.apps.server", "SocketWorkSource", ("complete",), 1),
    ("apps", "repro.apps.rocksdb", "RocksDbServer", ("on_enqueue",), 2),
    ("obs.acct", "repro.obs.accounting", "TenantAccountant",
     _ACCT_SEAMS, 1),
    ("obs.acct", "repro.obs.interference", "BlameMatrix", ("charge",),
     None),
    ("obs", "repro.obs.interference", "NoisyNeighborDetector",
     ("__call__",), None),
    ("obs", "repro.obs.interference", "TenantShedController",
     ("__call__",), None),
    ("obs", "repro.obs.sketch", "DDSketch", ("add",), None),
    ("obs", "repro.obs.slo", "Slo", ("record",), None),
    ("obs", "repro.obs.slo", "LatencySlo", ("observe",), None),
    ("core.signals", "repro.core.signals", "SignalBus",
     ("_tick", "tick_once"), None),
    ("cluster", "repro.cluster.fleet", "FleetGenerator", ("_arrive",), None),
    ("cluster", "repro.cluster.fleet", "Fleet",
     ("admit", "resteer", "_complete", "drop"), 1),
    ("cluster", "repro.cluster.fleet", "Fleet", ("send_response",), 2),
    ("cluster", "repro.cluster.fleet", "Fleet",
     ("kill_machine", "_notice_down", "restore_machine"), None),
    ("cluster", "repro.cluster.fleet", "FleetMachine",
     ("receive", "_complete_service"), 1),
    ("cluster", "repro.cluster.fleet", "TorSwitch", ("pick",), 1),
    ("cluster", "repro.cluster.steering", "PowerOfKSteering", ("pick",), 1),
    ("cluster", "repro.cluster.sync", "MapSyncBus",
     ("_tick", "_apply"), None),
)

#: Count metrics: span kinds whose calls they sum, over the timed run.
COUNTS = {
    "workload.requests": ("OpenLoopGenerator._send_one",),
    "net.packets": ("Nic.receive",),
    "kernel.netstack.packets": ("NetStack.deliver_from_nic",),
    "kernel.sockets.enqueues": ("UdpSocket.enqueue",),
    "core.hooks.decisions": ("HookSite.decide",),
    "ebpf.runs": ("LoadedProgram.run",),
    "kernel.sched.wakes": ("PinnedScheduler.wake", "CfsScheduler.wake",
                           "GhostScheduler.wake"),
    "kernel.sched.preempts": ("ThreadScheduler.preempt",),
    "kernel.arbiter.moves": ("CoreArbiter.move",),
    "kernel.cpu.submits": ("FifoServer.submit",),
    "ghost.messages": ("GhostAgent.notify",),
    "apps.requests": ("SocketWorkSource.complete",),
    "obs.acct.calls": tuple(f"TenantAccountant.{m}" for m in _ACCT_SEAMS),
    "obs.blame.charges": ("BlameMatrix.charge",),
    "obs.sketch.adds": ("DDSketch.add",),
    "core.signals.ticks": ("SignalBus.tick_once",),
    "cluster.admits": ("Fleet.admit",),
    "cluster.picks": ("TorSwitch.pick",),
    "cluster.resteers": ("Fleet.resteer",),
    "cluster.drops": ("Fleet.drop",),
}


def _item_id(obj):
    """Request id of a packet or request argument (-1 when it has none)."""
    request = getattr(obj, "request", None)
    if request is not None:
        return request.rid
    rid = getattr(obj, "rid", None)
    return rid if isinstance(rid, int) else -1


class Tracer:
    """In-memory span store plus per-layer self-time accumulators."""

    def __init__(self):
        self.kinds = []            # kind index -> "Class.method"
        self.kind_layer = []       # kind index -> layer index
        self.calls = []            # kind index -> calls so far
        self.span_kind = array("i")
        self.span_parent = array("i")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(LAYERS)
        self.top_inclusive = [0.0]
        self.stack = []
        #: The staged workload's engine, read for simulated socket waits.
        self.engine = None
        self.target_decisions = 0
        self.accepted_enqueues = 0
        self.socket_waits_us = []
        self._enqueued_at = {}
        self._run_mark = None

    # ------------------------------------------------------------------
    def _kind(self, name, layer):
        self.kinds.append(name)
        self.kind_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        return len(self.kinds) - 1

    def wrap(self, fn, name, layer, item_arg, probe=None):
        """Return a span-recording stand-in for ``fn``.

        ``probe``, when given, is a ``(before, after)`` pair called with
        ``args`` before the span opens and ``(args, result)`` after it
        closes, so its own cost stays out of the span.
        """
        before, after = probe if probe is not None else (None, None)
        kind = self._kind(name, layer)
        slot = self.kind_layer[kind]
        calls = self.calls
        self_s = self.self_s
        top = self.top_inclusive
        stack = self.stack
        span_kind = self.span_kind
        span_parent = self.span_parent
        span_item = self.span_item
        span_start = self.span_start
        span_end = self.span_end
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(span_start)
            span_kind.append(kind)
            span_parent.append(stack[-1][0] if stack else -1)
            span_item.append(
                _item_id(args[item_arg]) if item_arg is not None else -1
            )
            calls[kind] += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_s[slot] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    top[0] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- probes: outcomes the counts alone do not show --------------------
    def _on_decide(self, _args, result):
        if result[0] == "target":
            self.target_decisions += 1

    def _before_enqueue(self, args):
        # Stamped before the call: a woken thread may pop the packet
        # before enqueue() returns.
        self._enqueued_at[id(args[1])] = self.engine.now

    def _on_enqueue(self, args, accepted):
        if accepted:
            self.accepted_enqueues += 1
        else:
            self._enqueued_at.pop(id(args[1]), None)

    def _on_pop(self, _args, packet):
        if packet is not None:
            sent = self._enqueued_at.pop(id(packet), None)
            if sent is not None:
                self.socket_waits_us.append(self.engine.now - sent)

    # ------------------------------------------------------------------
    def begin_run(self, engine):
        """Mark the start of the timed run: later spans are run spans."""
        self.engine = engine
        self._run_mark = (list(self.self_s), list(self.calls),
                          self.top_inclusive[0])

    def report(self, run_wall_s):
        """Per-layer self times and counts of the timed run."""
        self_before, calls_before, top_before = self._run_mark
        run_self = [after - before
                    for after, before in zip(self.self_s, self_before)]
        top = self.top_inclusive[0] - top_before
        run_self[LAYERS.index("sim")] = run_wall_s - top
        calls = {name: self.calls[k] - calls_before[k]
                 for k, name in enumerate(self.kinds)}
        return {
            "self_s": dict(zip(LAYERS, run_self)),
            "calls": calls,
            "kind_layer": {name: LAYERS[self.kind_layer[k]]
                           for k, name in enumerate(self.kinds)},
            "ebpf_load_s": self_before[LAYERS.index("ebpf")],
            "target_decisions": self.target_decisions,
            "accepted_enqueues": self.accepted_enqueues,
            "socket_wait_us_p99": (
                float(numpy.percentile(self.socket_waits_us, 99.0))
                if self.socket_waits_us else 0.0
            ),
        }

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays.

        The header gives the kind names, each kind's layer, the span
        count and the array order and typecodes; each array follows as
        native-endian machine values.
        """
        header = {
            "kinds": self.kinds,
            "kind_layer": [LAYERS[i] for i in self.kind_layer],
            "spans": len(self.span_start),
            "arrays": [["kind", "i"], ["parent", "i"], ["item", "q"],
                       ["start_s", "d"], ["end_s", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_kind, self.span_parent, self.span_item,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def install(tracer):
    """Wrap every entry point in :data:`ENTRY_POINTS` with ``tracer``."""
    probes = {
        "HookSite.decide": (None, tracer._on_decide),
        "UdpSocket.enqueue": (tracer._before_enqueue, tracer._on_enqueue),
        "UdpSocket.pop": (None, tracer._on_pop),
    }
    for layer, module_name, owner_name, attributes, item_arg in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        for attribute in attributes:
            if attribute not in vars(owner):
                raise AttributeError(
                    f"{module_name}.{owner_name or ''} defines no "
                    f"{attribute!r} entry point"
                )
            name = f"{owner_name}.{attribute}" if owner_name else attribute
            fn = vars(owner)[attribute]
            setattr(owner, attribute, tracer.wrap(
                fn, name, layer, item_arg, probes.get(name)
            ))

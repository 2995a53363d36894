"""One observer seam per datapath layer.

Every datapath object (NIC, netstack, sockets, thread schedulers, hook
sites, the core arbiter, the fleet tier) holds a single ``observer``
attribute and reports each lifecycle event to it with exactly one call.
:class:`Observer` defines every seam as a no-op, one signature per seam;
the span tracer (:mod:`repro.obs.spans`) and the tenant accountant
(:mod:`repro.obs.accounting`) subclass it and override only the seams
they use.

:class:`repro.obs.Observability` picks what a machine's datapath holds:
the shared :data:`NULL_OBSERVER` when no observer is live, the one live
observer itself, or a :class:`Fanout` over both.  Observers only read the
datapath, so whichever is installed, every simulation result stays
bit-identical.
"""

import inspect

__all__ = ["NULL_OBSERVER", "SEAMS", "Fanout", "Observer"]


class Observer:
    """The seam catalogue: every method is a no-op.

    Packet seams take the :class:`~repro.net.packet.Packet` first, thread
    seams the :class:`~repro.kernel.threads.KThread`, fleet seams the
    :class:`~repro.workload.requests.Request`.
    """

    enabled = False

    # -- NIC (repro.net.nic) ----------------------------------------------
    def nic_arrival(self, packet):
        pass

    def nic_delivered(self, packet, queue_index):
        pass

    # -- kernel receive path (repro.kernel.netstack / sockets) ------------
    def softirq_begin(self, packet, core_index, depth):
        pass

    def softirq_end(self, packet):
        pass

    def socket_enqueued(self, packet, socket, depth):
        pass

    def socket_dequeued(self, packet, socket):
        pass

    def qdisc_enqueued(self, packet, layer, rank, backend):
        pass

    def qdisc_dequeued(self, packet):
        pass

    def drop(self, packet, reason):
        pass

    # -- hook sites (repro.core.hooks) ------------------------------------
    def decision(self, packet, hook, outcome, value=None, fd=None, seq=None):
        pass

    def policy_exec(self, packet, cost_us):
        pass

    # -- thread scheduling (repro.kernel.sched / cfs / arbiter, ghost) ----
    def thread_runnable(self, thread):
        pass

    def placement_begin(self, thread, core_id):
        pass

    def placement_abort(self, thread):
        pass

    def service_begin(self, thread, token):
        pass

    def service_end(self, thread, token):
        pass

    def book_core_occupancy(self, tenant, us):
        pass

    # -- fleet tier (repro.cluster.fleet) ---------------------------------
    def switch_arrival(self, request):
        pass

    def switch_steer(self, request, machine, policy, resteer=False):
        pass

    def xnet_begin(self, request, direction, machine):
        pass

    def xnet_end(self, request):
        pass

    def machine_enqueued(self, request, machine, depth):
        pass

    def machine_requeued(self, request):
        pass

    def fleet_service_begin(self, request, machine):
        pass

    def fleet_service_end(self, request):
        pass

    def fleet_complete(self, request):
        pass

    def fleet_drop(self, request, reason):
        pass


#: Seam names, in catalogue order.
SEAMS = tuple(
    name for name, value in vars(Observer).items() if callable(value)
    and not name.startswith("_")
)

#: Shared instance held by every datapath object while nothing observes.
NULL_OBSERVER = Observer()


def _fan(name, methods):
    """A function with seam ``name``'s signature that calls each of
    ``methods`` in turn.  The calls are spelled out with fixed arity:
    forwarding ``*args`` costs several plain calls on this hot path."""
    params = list(inspect.signature(getattr(Observer, name)).parameters
                  .values())[1:]
    args = ", ".join(p.name for p in params)
    body = "".join(f"    m{i}({args})\n" for i in range(len(methods)))
    namespace = {f"m{i}": method for i, method in enumerate(methods)}
    exec(f"def {name}({', '.join(map(str, params))}):\n{body}", namespace)
    return namespace[name]


class Fanout(Observer):
    """Forwards each seam to several observers, in subscription order.

    Methods are bound once, at construction: a seam that only one
    subscriber overrides is that subscriber's bound method, so it pays no
    indirection; seams nobody overrides stay the base no-op.
    """

    enabled = True

    def __init__(self, *observers):
        self.observers = observers
        for name in SEAMS:
            base = getattr(Observer, name)
            methods = [getattr(o, name) for o in observers
                       if getattr(type(o), name) is not base]
            if len(methods) == 1:
                setattr(self, name, methods[0])
            elif methods:
                setattr(self, name, _fan(name, methods))

    def __repr__(self):
        return f"<Fanout {' '.join(map(repr, self.observers))}>"

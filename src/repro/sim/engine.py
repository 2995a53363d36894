"""The discrete-event engine.

A minimal, fast event loop.  Events are callbacks scheduled at absolute
simulated times (microseconds).  Each :class:`Event` is its own heap
entry: a ``list`` subclass ``[time, seq, fn, args]`` that ``heapq``
orders with C-level list comparison.  ``seq`` is unique and increasing,
so equal times dispatch first-in first-out and a comparison never reaches
``fn``.  Cancellation is lazy: :meth:`Event.cancel` clears ``fn`` and the
entry stays in the heap until it is popped and skipped, which keeps both
operations O(log n) without heap surgery.
"""

import heapq
from operator import itemgetter

__all__ = ["Engine", "Event", "SimulationError"]

_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Event(list):
    """A scheduled callback, stored as its heap entry ``[time, seq, fn, args]``.

    Instances are created via :meth:`Engine.schedule` / :meth:`Engine.at`;
    user code only ever cancels them and reads them back.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(2), doc="The callback; None once cancelled.")
    args = property(itemgetter(3))

    @property
    def cancelled(self):
        return self[2] is None

    def cancel(self):
        """Mark this event so the engine skips it.  Idempotent."""
        self[2] = None

    def __repr__(self):
        fn = self[2]
        state = " cancelled" if fn is None else ""
        return f"<Event t={self[0]:.3f} fn={getattr(fn, '__name__', fn)!r}{state}>"


class Engine:
    """A discrete-event simulation loop with microsecond-resolution time.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5.0, hits.append, 1)
    >>> eng.run()
    >>> (eng.now, hits)
    (5.0, [1])
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        #: Events ever scheduled, cancelled ones included.
        self._seq = 0
        self._running = False
        self.events_dispatched = 0
        # Optional repro.obs.profile.WallClockProfiler; when set, run()
        # brackets the loop in an "engine" section (exclusive time = loop
        # + un-instrumented callbacks).  Never touches simulation state.
        self.profiler = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        self._seq = seq = self._seq + 1
        ev = Event((self.now + delay, seq, fn, args))
        heapq.heappush(self._heap, ev)
        return ev

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event((time, seq, fn, args))
        heapq.heappush(self._heap, ev)
        return ev

    def call_soon(self, fn, *args):
        """Schedule ``fn(*args)`` at the current instant (after pending work)."""
        return self.at(self.now, fn, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Dispatch the next non-cancelled event.  Returns False when idle."""
        heap = self._heap
        while heap:
            time, _seq, fn, args = heapq.heappop(heap)
            if fn is None:
                continue
            self.now = time
            self.events_dispatched += 1
            fn(*args)
            return True
        return False

    def run(self, until=None, max_events=None):
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; when the next event lies
        beyond it the clock is advanced exactly to ``until`` and the event is
        left in the heap.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        profiler = self.profiler
        if profiler is not None:
            profiler.push("engine")
        try:
            heap = self._heap
            pop = heapq.heappop
            limit = _FOREVER if until is None else until
            dispatched = 0
            while heap:
                ev = pop(heap)
                time, _seq, fn, args = ev
                if fn is None:
                    continue
                if time > limit:
                    # Pop-then-push-back is cheaper per event than peeking,
                    # and (time, seq) keys are unique, so the dispatch
                    # order is unchanged.
                    heapq.heappush(heap, ev)
                    self.now = until
                    return
                self.now = time
                self.events_dispatched += 1
                fn(*args)
                dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            if profiler is not None:
                profiler.pop()

    def pending(self):
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for ev in self._heap if ev[2] is not None)

    def __repr__(self):
        return f"<Engine now={self.now:.3f}us pending={len(self._heap)}>"

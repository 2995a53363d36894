"""Latency recording and percentile computation.

The paper reports client-observed tail latency (99% for RocksDB, 99.9% for
MICA).  We collect every sample after a warmup cutoff and compute exact
percentiles — sample counts in these experiments (10^4–10^5 per point) make
sketches unnecessary.

Percentiles use the ``linear`` method (Hyndman & Fan type 7, numpy's
default), with its interpolation formula written out in ``_percentile``
below rather than delegated to a library.  The golden percentiles pinned by
the tests and benchmark references therefore depend only on this file, not
on how an installed numerics package happens to implement interpolation,
and the simulator runs on a bare CPython.  The mean is ``math.fsum`` over
the samples, correctly rounded.
"""

import math

__all__ = ["LatencyRecorder"]


def _percentile(s, q):
    """``q``-th percentile of the already sorted list ``s``; NaN if empty.

    Linear method: the virtual index is ``vi = (n - 1) * (q / 100)``.  At or
    past the last index the answer is the largest sample.  Otherwise, with
    ``lo = floor(vi)``, ``g = vi - lo``, ``a = s[lo]``, ``b = s[lo + 1]`` and
    ``d = b - a``, it is ``a + d*g`` for ``g < 0.5`` and ``b - d*(1 - g)``
    otherwise.  Interpolating from the nearer neighbour is what numpy does
    too, so the two agree bit for bit.
    """
    n = len(s)
    if not n:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    vi = (n - 1) * (q / 100.0)
    if vi >= n - 1:
        return float(s[-1])
    lo = math.floor(vi)
    g = vi - lo
    a = s[lo]
    b = s[lo + 1]
    d = b - a
    if g < 0.5:
        return float(a + d * g)
    return float(b - d * (1.0 - g))


class LatencyRecorder:
    """Collects latency samples (microseconds), optionally split by a tag.

    Samples recorded before ``warmup_until`` (simulated time) are discarded,
    matching the paper's practice of measuring at steady state.
    """

    def __init__(self, warmup_until=0.0):
        self.warmup_until = warmup_until
        self._samples = []
        self._by_tag = {}

    def record(self, now, latency, tag=None):
        """Record one sample observed at simulated time ``now``."""
        if now < self.warmup_until:
            return
        self._samples.append(latency)
        if tag is not None:
            bucket = self._by_tag.get(tag)
            if bucket is None:
                bucket = self._by_tag[tag] = []
            bucket.append(latency)

    # ------------------------------------------------------------------
    @property
    def count(self):
        return len(self._samples)

    def tags(self):
        return sorted(self._by_tag)

    def _select(self, tag):
        if tag is None:
            return self._samples
        return self._by_tag.get(tag, [])

    def percentile(self, q, tag=None):
        """Return the ``q``-th percentile (e.g. 99.0), or NaN if empty.

        Raises ``ValueError`` for ``q`` outside [0, 100].
        """
        return _percentile(sorted(self._select(tag)), q)

    def p99(self, tag=None):
        return self.percentile(99.0, tag)

    def p999(self, tag=None):
        return self.percentile(99.9, tag)

    def p50(self, tag=None):
        return self.percentile(50.0, tag)

    def mean(self, tag=None):
        samples = self._select(tag)
        if not samples:
            return float("nan")
        return math.fsum(samples) / len(samples)

    def max(self, tag=None):
        samples = self._select(tag)
        if not samples:
            return float("nan")
        return float(max(samples))

    def summary(self, tag=None):
        """Dict of the standard statistics for one tag (or all samples)."""
        s = sorted(self._select(tag))
        return {
            "count": len(s),
            "mean": self.mean(tag),
            "p50": _percentile(s, 50.0),
            "p99": _percentile(s, 99.0),
            "p999": _percentile(s, 99.9),
            "max": self.max(tag),
        }

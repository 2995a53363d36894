"""Tests for latency recording, counters, and result tables."""

import math
import random

import pytest

from repro.stats.latency import LatencyRecorder
from repro.stats.meters import Counter
from repro.stats.results import Table, format_table


def test_percentiles_exact_on_known_data():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record(10.0, float(v))
    assert rec.p50() == pytest.approx(50.5)
    assert rec.p99() == pytest.approx(99.01)
    assert rec.mean() == pytest.approx(50.5)
    assert rec.max() == 100.0


def test_warmup_discards_samples():
    rec = LatencyRecorder(warmup_until=100.0)
    rec.record(50.0, 1.0)
    rec.record(150.0, 2.0)
    assert rec.count == 1
    assert rec.p50() == 2.0


def test_tagged_samples():
    rec = LatencyRecorder()
    rec.record(0.0, 10.0, tag="get")
    rec.record(0.0, 700.0, tag="scan")
    rec.record(0.0, 12.0, tag="get")
    assert rec.p50(tag="get") == 11.0
    assert rec.p50(tag="scan") == 700.0
    assert rec.tags() == ["get", "scan"]


def test_empty_recorder_is_nan():
    rec = LatencyRecorder()
    assert math.isnan(rec.p99())
    assert math.isnan(rec.mean())
    assert math.isnan(rec.p99(tag="missing"))
    assert math.isnan(rec.percentile(0.0))
    assert rec.summary()["count"] == 0
    assert all(math.isnan(v) for k, v in rec.summary().items() if k != "count")


def test_summary_keys():
    rec = LatencyRecorder()
    rec.record(0.0, 5.0)
    summary = rec.summary()
    assert set(summary) == {"count", "mean", "p50", "p99", "p999", "max"}
    assert summary["count"] == 1


# Golden percentiles, recorded with ``numpy.percentile`` (default ``linear``
# method) before the stats layer dropped numpy.  They are exact literals
# compared with ``==``: the benchmark references pin percentiles bit for bit.
GOLDEN_QS = (0.0, 37.3, 50.0, 99.0, 99.9, 100.0)
GOLDEN = {
    "one": (42.5, 42.5, 42.5, 42.5, 42.5, 42.5),
    "two": (3.0, 4.492, 5.0, 6.96, 6.996, 7.0),
    "nine_ties": (1.0, 3.23, 5.0, 8.879999999999999, 8.988000000000001, 9.0),
    "thousand": (1.2, 15.162700000000001, 19.3, 127.12999999999988,
                 201.3012000000091, 302.4),
    "thousand_get": (1.2, 14.8, 19.3, 121.03000000000014,
                     213.08940000000806, 302.4),
    "thousand_scan": (2.0, 16.4836, 19.3, 135.8400000000001,
                      181.51240000000374, 201.2),
    "expo_45k": (0.0028637616959154466, 37.22805699694796, 55.05918196511948,
                 371.013686408032, 536.3034848633977, 950.5614040986559),
}


def _golden_cases():
    """(name, recorder, tag) triples covering sizes 1, 2, 9, 1000 and 45 000."""
    one = LatencyRecorder()
    one.record(0.0, 42.5)
    two = LatencyRecorder()
    for v in (7.0, 3.0):
        two.record(0.0, v)
    nine = LatencyRecorder()
    for v in (5.0, 1.0, 5.0, 9.0, 2.0, 5.0, 7.5, 1.0, 3.25):
        nine.record(0.0, v)
    # 1100 samples at now = 0..1099; the first 100 fall before warmup.  One
    # decimal place makes ties common; every third sample is a scan.
    rng = random.Random(1000)
    thousand = LatencyRecorder(warmup_until=100.0)
    for i in range(1100):
        thousand.record(float(i), round(rng.lognormvariate(3.0, 0.8), 1),
                        tag="scan" if i % 3 == 0 else "get")
    rng = random.Random(45000)
    expo = LatencyRecorder()
    for _ in range(45000):
        expo.record(0.0, rng.expovariate(1.0 / 80.0))
    return [
        ("one", one, None),
        ("two", two, None),
        ("nine_ties", nine, None),
        ("thousand", thousand, None),
        ("thousand_get", thousand, "get"),
        ("thousand_scan", thousand, "scan"),
        ("expo_45k", expo, None),
    ]


def test_golden_percentiles_are_bit_exact():
    cases = _golden_cases()
    assert [name for name, _, _ in cases] == list(GOLDEN)
    thousand = cases[3][1]
    assert thousand.count == 1000
    assert (thousand.summary("get")["count"]
            + thousand.summary("scan")["count"]) == 1000
    for name, rec, tag in cases:
        want = GOLDEN[name]
        got = tuple(rec.percentile(q, tag) for q in GOLDEN_QS)
        assert got == want, name
        assert (rec.p50(tag), rec.p99(tag), rec.p999(tag)) == want[2:5], name
        summary = rec.summary(tag)
        assert (summary["p50"], summary["p99"], summary["p999"]) == want[2:5]
        assert summary["max"] == want[5]


def test_percentile_rejects_q_outside_0_100():
    rec = LatencyRecorder()
    rec.record(0.0, 1.0)
    for q in (-1.0, 100.5):
        with pytest.raises(ValueError):
            rec.percentile(q)


def test_mean_is_correctly_rounded():
    rec = LatencyRecorder()
    for v in (1e16, 1.0, -1e16, 0.1, 0.2):
        rec.record(0.0, v)
    assert rec.mean() == math.fsum((1.0, 0.1, 0.2)) / 5


def test_counter_warmup_and_totals():
    counter = Counter(warmup_until=10.0)
    counter.add(5.0, "a")
    counter.add(15.0, "a")
    counter.add(20.0, "b", n=3)
    assert counter.get("a") == 1
    assert counter.get("b") == 3
    assert counter.total() == 4
    assert counter.as_dict() == {"a": 1, "b": 3}


def test_table_add_and_columns():
    table = Table("demo", ["x", "y"])
    table.add(x=1, y=2.0)
    table.add(x=3)
    assert table.column("x") == [1, 3]
    assert table.column("y") == [2.0, None]
    assert len(table) == 2


def test_table_rejects_unknown_columns():
    table = Table("demo", ["x"])
    with pytest.raises(KeyError):
        table.add(z=1)


def test_table_render_contains_values():
    table = Table("demo", ["policy", "p99_us"])
    table.add(policy="rr", p99_us=123.456)
    text = table.render()
    assert "demo" in text
    assert "rr" in text
    assert "123.46" in text


def test_format_table_alignment_with_nan():
    text = format_table("t", ["a"], [type("R", (), {"get": lambda s, c: float("nan")})()])
    assert "nan" in text

"""Tests for packets, RSS, and the NIC model."""

import pytest

from repro.config import CostModel, NicSpec
from repro.net.nic import Nic
from repro.net.packet import (
    APP_TYPE_OFF,
    APP_USER_OFF,
    FiveTuple,
    Packet,
    build_payload,
)
from repro.net.rss import rss_hash, rss_queue
from repro.sim.engine import Engine

FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


# ----------------------------------------------------------------------
# Packet
# ----------------------------------------------------------------------
def test_packet_header_fields():
    pkt = Packet(FLOW, b"payload")
    assert pkt.load(0, 2) == FLOW.src_port
    assert pkt.load(2, 2) == FLOW.dst_port
    assert pkt.load(4, 2) == 8 + 7  # UDP length
    assert pkt.dst_port == 8080


def test_packet_payload_layout():
    payload = build_payload(2, user_id=9, key_hash=77, req_id=123)
    pkt = Packet(FLOW, payload)
    assert pkt.load(APP_TYPE_OFF, 8) == 2
    assert pkt.load(APP_USER_OFF, 8) == 9
    assert pkt.load(24, 8) == 77
    assert pkt.load(32, 8) == 123
    assert pkt.length == 8 + 32


def test_packet_out_of_bounds_raises():
    pkt = Packet(FLOW, b"abc")
    with pytest.raises(IndexError):
        pkt.load(8, 8)
    with pytest.raises(IndexError):
        pkt.load(-1, 1)


def test_packet_partial_widths():
    pkt = Packet(FLOW, bytes(range(16)))
    assert pkt.load(8, 1) == 0
    assert pkt.load(9, 1) == 1
    assert pkt.load(8, 2) == 0x0100


# ----------------------------------------------------------------------
# RSS
# ----------------------------------------------------------------------
def test_rss_deterministic_per_flow():
    assert rss_hash(FLOW) == rss_hash(FLOW)
    assert rss_queue(FLOW, 8) == rss_queue(FLOW, 8)


# FNV-1a values recorded before rss_hash was memoized: the cache must
# return exactly what the unmemoized hash computed.
RSS_GOLDEN = {
    (FLOW, 0): 1312151118,
    (FLOW, 0x5EED): 4280608010,
    (FiveTuple(0x0A00BEEF, 51234, 0x0A000001, 11211, 6), 0): 161762436,
    (FiveTuple(0x0A00BEEF, 51234, 0x0A000001, 11211, 6), 0x5EED): 1245758338,
}


def test_rss_hash_golden_values_survive_the_memo():
    rss_hash.cache_clear()
    computed = {key: rss_hash(*key) for key in RSS_GOLDEN}
    memoized = {key: rss_hash(*key) for key in RSS_GOLDEN}
    assert computed == memoized == RSS_GOLDEN
    assert rss_hash.cache_info().hits == len(RSS_GOLDEN)


def test_rss_salt_changes_mapping():
    flows = [FLOW._replace(src_port=40000 + i) for i in range(64)]
    a = [rss_queue(f, 8, salt=1) for f in flows]
    b = [rss_queue(f, 8, salt=2) for f in flows]
    assert a != b


def test_rss_roughly_uniform_over_many_flows():
    flows = [FLOW._replace(src_port=30000 + i, src_ip=i) for i in range(4000)]
    buckets = [0] * 8
    for f in flows:
        buckets[rss_queue(f, 8)] += 1
    assert min(buckets) > 350  # ~500 expected per bucket


def test_rss_small_pools_are_imbalanced_sometimes():
    """The Figure-2 premise: 50 flows into 6 buckets is frequently lopsided."""
    worst = 0
    for salt in range(30):
        flows = [FLOW._replace(src_port=40000 + i) for i in range(50)]
        buckets = [0] * 6
        for f in flows:
            buckets[rss_queue(f, 6, salt=salt)] += 1
        worst = max(worst, max(buckets))
    assert worst >= 12  # >=40% above the fair share of 8.33


# ----------------------------------------------------------------------
# NIC
# ----------------------------------------------------------------------
def make_nic(**spec_kwargs):
    engine = Engine()
    spec = NicSpec(num_queues=4, **spec_kwargs)
    nic = Nic(engine, spec, CostModel(), salt=7)
    return engine, nic


def test_nic_delivers_after_delay():
    engine, nic = make_nic()
    seen = []
    nic.deliver = lambda q, p: seen.append((engine.now, q, p))
    pkt = Packet(FLOW, b"x")
    nic.receive(pkt)
    engine.run()
    assert len(seen) == 1
    t, q, delivered = seen[0]
    assert t == pytest.approx(nic.spec.rx_process_us + nic.costs.irq_delay_us)
    assert q == rss_queue(FLOW, 4, salt=7)
    assert delivered.rx_queue == q


def test_nic_without_handler_counts_drop():
    _engine, nic = make_nic()
    nic.receive(Packet(FLOW, b"x"))
    assert nic.drops["no_handler"] == 1


def test_nic_offload_requires_capability():
    _engine, nic = make_nic(supports_offload=False)
    with pytest.raises(ValueError):
        nic.attach_classifier(object())


class _StaticClassifier:
    def __init__(self, action, target=None):
        self.action = action
        self.target = target

    def decide(self, packet):
        return (self.action, self.target)

    def cost_us(self, packet):
        return 0.0


def test_nic_offload_classifier_steers():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("target", 2))
    seen = []
    nic.deliver = lambda q, p: seen.append(q)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert seen == [2]


def test_nic_offload_drop():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("drop"))
    nic.deliver = lambda q, p: (_ for _ in ()).throw(AssertionError)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert nic.drops["offload_drop"] == 1


def test_nic_offload_pass_falls_back_to_rss():
    engine, nic = make_nic(supports_offload=True)
    nic.attach_classifier(_StaticClassifier("pass"))
    seen = []
    nic.deliver = lambda q, p: seen.append(q)
    nic.receive(Packet(FLOW, b"x"))
    engine.run()
    assert seen == [rss_queue(FLOW, 4, salt=7)]

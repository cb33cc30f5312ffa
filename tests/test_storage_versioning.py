"""Tests for the loosely-consistent versioning coordinator."""

import pytest

from repro.errors import StaleSnapshot, VersioningError
from repro.storage.versioning import VersionCoordinator


def produce(vc, items):
    """Open, fill and publish one version."""
    vc.open_version()
    for item in items:
        vc.add_item(item)
    return vc.publish()


@pytest.fixture
def vc():
    c = VersionCoordinator()
    c.register_consumer("indexer")
    c.register_consumer("classifier")
    return c


def test_produce_and_poll(vc):
    produce(vc, ["u1", "u2"])
    produce(vc, ["u3"])
    watermark, items = vc.poll("indexer")
    assert watermark == 2
    assert items == ["u1", "u2", "u3"]


def test_ack_advances_consumer(vc):
    produce(vc, ["a"])
    w, items = vc.poll("indexer")
    vc.ack("indexer", w)
    w2, items2 = vc.poll("indexer")
    assert items2 == []
    assert w2 == w
    assert vc.staleness("indexer") == 0


def test_unpublished_version_is_invisible(vc):
    vc.open_version()
    vc.add_item("hidden")
    _, items = vc.poll("indexer")
    assert items == []
    vc.publish()
    _, items = vc.poll("indexer")
    assert items == ["hidden"]


def test_single_producer_enforced(vc):
    vc.open_version()
    with pytest.raises(VersioningError):
        vc.open_version()
    vc.publish()
    vc.open_version()  # fine after publish


def test_abort_discards_open_version(vc):
    vc.open_version()
    vc.add_item("doomed")
    vc.abort_version()
    produce(vc, ["kept"])
    _, items = vc.poll("indexer")
    assert items == ["kept"]


def test_add_without_open_raises(vc):
    with pytest.raises(VersioningError):
        vc.add_item("x")
    with pytest.raises(VersioningError):
        vc.publish()
    with pytest.raises(VersioningError):
        vc.abort_version()


def test_consumers_lag_independently(vc):
    produce(vc, ["a"])
    produce(vc, ["b"])
    w, _ = vc.poll("indexer")
    vc.ack("indexer", w)
    assert vc.staleness("indexer") == 0
    assert vc.staleness("classifier") == 2
    _, items = vc.poll("classifier")
    assert items == ["a", "b"]


def test_ack_validation(vc):
    produce(vc, ["a"])
    with pytest.raises(VersioningError):
        vc.ack("indexer", 5)  # beyond published
    vc.ack("indexer", 1)
    with pytest.raises(VersioningError):
        vc.ack("indexer", 0)  # backwards
    with pytest.raises(VersioningError):
        vc.ack("ghost", 1)
    with pytest.raises(VersioningError):
        vc.poll("ghost")
    with pytest.raises(VersioningError):
        vc.staleness("ghost")


def test_gc_reclaims_fully_acked_versions(vc):
    for batch in (["a"], ["b"], ["c"]):
        produce(vc, batch)
    assert vc.live_versions() == 3
    vc.ack("indexer", 3)
    assert vc.live_versions() == 3  # classifier still at 0
    vc.ack("classifier", 2)
    # The ack that raised the slowest watermark reclaimed 1 and 2 ...
    assert vc.live_versions() == 1
    # ... so an explicit gc finds nothing left to reclaim.
    assert vc.gc() == 0
    # The slow consumer can still read version 3.
    _, items = vc.poll("classifier")
    assert items == ["c"]


def test_gc_without_consumers_is_noop():
    vc = VersionCoordinator()
    produce(vc, ["a"])
    assert vc.gc() == 0


def test_register_is_idempotent(vc):
    produce(vc, ["a"])
    w, _ = vc.poll("indexer")
    vc.ack("indexer", w)
    vc.register_consumer("indexer")
    assert vc.staleness("indexer") == 0  # not reset


def test_late_registration_starts_at_gc_floor(vc):
    produce(vc, ["a"])
    produce(vc, ["b"])
    vc.ack("indexer", 2)
    vc.ack("classifier", 2)
    vc.gc()
    vc.register_consumer("latecomer")
    # Latecomer cannot see reclaimed versions but polls cleanly from here on.
    _, items = vc.poll("latecomer")
    assert items == []
    produce(vc, ["c"])
    _, items = vc.poll("latecomer")
    assert items == ["c"]


def test_stale_snapshot_detected():
    vc = VersionCoordinator()
    vc.register_consumer("fast")
    vc.register_consumer("slow")
    produce(vc, ["a"])
    vc.ack("fast", 1)
    vc.ack("slow", 1)
    vc.gc()
    # Force the slow consumer's watermark below the floor to simulate a
    # consumer that restarted from ancient persisted state.
    vc._consumers["slow"] = 0
    with pytest.raises(StaleSnapshot):
        vc.poll("slow")


def test_consumers_view(vc):
    produce(vc, ["a"])
    vc.ack("indexer", 1)
    assert vc.consumers() == {"indexer": 1, "classifier": 0}
    assert vc.published_version == 1


def test_randomized_protocol_delivers_exactly_once_in_order():
    """Protocol stress: under arbitrary interleavings of produce, abort,
    poll, ack, and gc, every consumer receives exactly the published item
    sequence — no loss, no duplication, no reordering."""
    import random

    rng = random.Random(7)
    vc = VersionCoordinator()
    consumers = ["a", "b", "c"]
    for c in consumers:
        vc.register_consumer(c)
    produced = []
    delivered = {c: [] for c in consumers}
    pending = {c: None for c in consumers}
    open_items = None
    for step in range(3000):
        op = rng.random()
        if op < 0.3 and open_items is None:
            vc.open_version()
            open_items = []
        elif op < 0.5 and open_items is not None:
            item = f"i{step}"
            vc.add_item(item)
            open_items.append(item)
        elif op < 0.6 and open_items is not None:
            if rng.random() < 0.8:
                vc.publish()
                produced.extend(open_items)
            else:
                vc.abort_version()
            open_items = None
        elif op < 0.8:
            c = rng.choice(consumers)
            if pending[c] is None:
                pending[c] = vc.poll(c)
        elif op < 0.95:
            c = rng.choice(consumers)
            if pending[c] is not None:
                w, items = pending[c]
                delivered[c].extend(items)
                vc.ack(c, w)
                pending[c] = None
        else:
            vc.gc()
    if open_items is not None:
        vc.publish()
        produced.extend(open_items)
    for c in consumers:
        if pending[c] is not None:
            w, items = pending[c]
            delivered[c].extend(items)
            vc.ack(c, w)
        w, items = vc.poll(c)
        delivered[c].extend(items)
        vc.ack(c, w)
    for c in consumers:
        assert delivered[c] == produced
    vc.gc()
    assert vc.live_versions() <= 1

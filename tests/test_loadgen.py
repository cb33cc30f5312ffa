"""Unit tests for the load schedules (``repro.loadgen``).

The determinism contract is the heart of this file: a schedule built
from a seed must be byte-identical in every process — including under
*different* ``PYTHONHASHSEED`` values, which is the proof that no
builtin ``hash()`` or raw set iteration leaks into generation.  The
rest covers the population models' statistics.
"""

import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.loadgen import LoadSchedule, build_schedule, merge_schedules
from repro.webgen import DiurnalCurve, FlashCrowd, ZipfPopulation, arrival_times

SRC = Path(__file__).resolve().parent.parent / "src"


def _fake_corpus(n_topics=3, pages_per_topic=10):
    """A minimal corpus stand-in: ``pages`` maps url -> .topic objects."""
    pages = {}
    for t in range(n_topics):
        for p in range(pages_per_topic):
            url = f"http://site{t}/p{p:02d}"
            pages[url] = SimpleNamespace(topic=f"/Top/T{t}")
    return SimpleNamespace(pages=pages)


# -- population models --------------------------------------------------------


class TestZipfPopulation:
    def test_ranks_in_bounds_and_skewed(self):
        pop = ZipfPopulation(1_000_000, exponent=1.1)
        rng = random.Random(3)
        ranks = [pop.sample_rank(rng) for _ in range(4000)]
        assert min(ranks) >= 1 and max(ranks) <= 1_000_000
        # Zipf skew: the top 100 ranks of a million-user population
        # carry a large share of the activity.
        top_share = sum(1 for r in ranks if r <= 100) / len(ranks)
        assert top_share > 0.3

    def test_exponent_one_path(self):
        pop = ZipfPopulation(10_000, exponent=1.0)
        rng = random.Random(5)
        ranks = [pop.sample_rank(rng) for _ in range(1000)]
        assert min(ranks) >= 1 and max(ranks) <= 10_000

    def test_user_ids_sortable_and_stable(self):
        pop = ZipfPopulation(100)
        assert pop.user_id(1) == "u0000001"
        assert pop.user_id(99) < pop.user_id(100)  # zero-padded sort

    def test_interests_deterministic_and_distinct(self):
        pop = ZipfPopulation(1000)
        topics = [f"/Top/T{i}" for i in range(8)]
        a = pop.interests("u0000042", topics, k=3, seed=9)
        b = pop.interests("u0000042", list(reversed(topics)), k=3, seed=9)
        assert a == b  # input order must not matter (sorted internally)
        assert len(set(a)) == 3
        # A different user draws different interests (overwhelmingly).
        others = [pop.interests(f"u{i:07d}", topics, k=3, seed=9)
                  for i in range(1, 30)]
        assert any(o != a for o in others)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopulation(0)
        with pytest.raises(ValueError):
            ZipfPopulation(10, exponent=0.0)


class TestDiurnalCurve:
    def test_mean_is_base_and_peak_located(self):
        curve = DiurnalCurve(10.0, amplitude=0.5, period=100.0, peak=0.8)
        samples = [curve.rate(t) for t in range(100)]
        assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.01)
        assert curve.rate(80.0) == pytest.approx(15.0)   # peak
        assert curve.rate(30.0) == pytest.approx(5.0)    # trough
        assert curve.max_rate == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalCurve(-1.0)
        with pytest.raises(ValueError):
            DiurnalCurve(1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalCurve(1.0, period=0.0)


class TestFlashCrowd:
    def test_boost_shape(self):
        flash = FlashCrowd(at=10.0, duration=10.0, multiplier=5.0)
        assert flash.boost(9.9) == 1.0
        assert flash.boost(20.0) == 1.0
        assert flash.boost(15.0) == pytest.approx(5.0)        # plateau
        assert flash.boost(11.0) == pytest.approx(3.0)        # mid-ramp
        assert 1.0 < flash.boost(10.5) < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            FlashCrowd(at=0.0, duration=1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            FlashCrowd(at=0.0, duration=1.0, attraction=1.5)


class TestArrivalTimes:
    def test_deterministic_and_rate_scaled(self):
        def flat(_t):
            return 5.0

        a = list(arrival_times(flat, 5.0, 0.0, 100.0, random.Random(11)))
        b = list(arrival_times(flat, 5.0, 0.0, 100.0, random.Random(11)))
        assert a == b
        assert a == sorted(a)
        assert all(0.0 <= t < 100.0 for t in a)
        # Poisson mean 500: 5 sigma is ~112.
        assert abs(len(a) - 500) < 120

    def test_thinning_tracks_rate_function(self):
        # Rate 10 in the first half, 0 in the second: arrivals must
        # only land in the first half.
        def step(t):
            return 10.0 if t < 50.0 else 0.0

        ts = list(arrival_times(step, 10.0, 0.0, 100.0, random.Random(2)))
        assert ts and all(t < 50.0 for t in ts)

    def test_zero_envelope_is_empty(self):
        assert list(arrival_times(lambda t: 0.0, 0.0, 0.0, 10.0,
                                  random.Random(1))) == []


# -- schedule determinism -----------------------------------------------------


class TestBuildSchedule:
    def test_same_seed_same_digest(self):
        corpus = _fake_corpus()
        a = build_schedule(corpus, seed=11, duration=20.0, rate=6.0)
        b = build_schedule(corpus, seed=11, duration=20.0, rate=6.0)
        assert a.digest() == b.digest()
        c = build_schedule(corpus, seed=12, duration=20.0, rate=6.0)
        assert c.digest() != a.digest()

    def test_sorted_and_in_horizon(self):
        sched = build_schedule(_fake_corpus(), seed=1, duration=30.0, rate=8.0)
        ats = [r.at for r in sched.requests]
        assert ats == sorted(ats)
        assert all(0.0 <= at < 30.0 for at in ats)

    def test_offered_rate_near_target(self):
        sched = build_schedule(_fake_corpus(), seed=3, duration=60.0, rate=10.0)
        # Poisson noise on ~330 sessions: the realized rate lands near
        # the target but not exactly on it.
        assert sched.offered_rate == pytest.approx(10.0, rel=0.35)

    def test_mix_and_payload_shapes(self):
        sched = build_schedule(_fake_corpus(), seed=5, duration=40.0, rate=8.0,
                               visits_per_batch=4)
        counts = sched.counts()
        sessions = counts["visit_batch"]
        assert sessions > 20
        # The read-side kinds fire with their mix probabilities.
        assert 0 < counts["search"] < sessions
        assert 0 < counts["recommend"] < counts["trail"] < sessions
        for r in sched.requests:
            if r.kind == "visit_batch":
                assert len(r.payload) == 4
                assert all(v["servlet"] == "visit" and v["url"].startswith("http")
                           for v in r.payload)
                # One batch surfs one topic's pages.
                topics = {v["url"].split("/")[2] for v in r.payload}
                assert len(topics) == 1
            else:
                assert r.payload["servlet"] == r.kind
        assert sched.meta["distinct_users"] == len(sched.users)

    def test_flash_crowd_herds_topic(self):
        corpus = _fake_corpus()
        flash = FlashCrowd(at=10.0, duration=20.0, multiplier=4.0,
                           topic="/Top/T1", attraction=1.0)
        sched = build_schedule(corpus, seed=7, duration=40.0, rate=6.0,
                               flash=flash)
        assert sched.meta["flash_sessions"] > 0
        in_window = [r for r in sched.requests
                     if r.kind == "visit_batch" and 10.0 <= r.at < 30.0]
        herded = [r for r in in_window
                  if all("site1" in v["url"] for v in r.payload)]
        # attraction=1.0: every in-window session surfs the flash topic.
        assert len(herded) == len(in_window) > 0
        # The window's arrival rate is visibly boosted vs outside.
        outside = [r for r in sched.requests
                   if r.kind == "visit_batch" and not (10.0 <= r.at < 30.0)]
        assert len(in_window) / 20.0 > len(outside) / 20.0

    def test_json_round_trip_preserves_digest(self):
        sched = build_schedule(_fake_corpus(), seed=2, duration=15.0, rate=5.0)
        clone = LoadSchedule.from_json(sched.to_json())
        assert clone.digest() == sched.digest()

    def test_merge_overlays_timelines(self):
        base = build_schedule(_fake_corpus(), seed=1, duration=20.0, rate=4.0)
        overlay = build_schedule(_fake_corpus(), seed=2, duration=10.0, rate=4.0)
        merged = merge_schedules([base, overlay])
        assert len(merged.requests) == len(base.requests) + len(overlay.requests)
        assert merged.duration == 20.0
        ats = [r.at for r in merged.requests]
        assert ats == sorted(ats)
        with pytest.raises(ValueError):
            merge_schedules([])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_schedule(_fake_corpus(), seed=1, duration=0.0, rate=5.0)
        with pytest.raises(ValueError):
            build_schedule(_fake_corpus(), seed=1, duration=5.0, rate=0.0)
        with pytest.raises(ValueError):
            build_schedule(SimpleNamespace(pages={}), seed=1, duration=5.0,
                           rate=5.0)


_SUBPROCESS_SCRIPT = """
import sys
from types import SimpleNamespace
from repro.loadgen import build_schedule
from repro.webgen import FlashCrowd

pages = {}
for t in range(3):
    for p in range(10):
        pages[f"http://site{t}/p{p:02d}"] = SimpleNamespace(topic=f"/Top/T{t}")
corpus = SimpleNamespace(pages=pages)
sched = build_schedule(
    corpus, seed=11, duration=20.0, rate=6.0,
    flash=FlashCrowd(at=8.0, duration=6.0, topic="/Top/T1"),
)
sys.stdout.write(sched.digest())
"""


def _digest_in_subprocess(hashseed):
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed,
             "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_schedule_byte_stable_across_processes_and_hash_seeds():
    """The cross-process determinism contract: the same generation seed
    yields the byte-identical schedule under *different*
    ``PYTHONHASHSEED`` values — proof that no salted ``hash()`` or raw
    set-iteration order feeds the offered load."""
    d0 = _digest_in_subprocess("0")
    d1 = _digest_in_subprocess("4242")
    assert d0 == d1
    assert len(d0) == 64  # a real sha256 came back

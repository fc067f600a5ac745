"""The control-tower scenario (smoke-sized) and its two replays."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.scenarios.controltower import (
    first_burn_and_breach, first_hot, run_controltower, served_by_replica,
)
from repro.telemetry.events import EventBus
from repro.ws.router import HashRing


@pytest.fixture(scope="module")
def result():
    return run_controltower(smoke=True)


def test_alert_precedes_hard_breach(result):
    assert result.alert_at is not None
    assert result.breach_at is not None
    assert result.alert_at < result.breach_at
    assert result.alert_lead > 0
    # Both fire after the warm phase — faults cause them, not cold start.
    assert result.alert_at >= result.warm_until


def test_smoke_instants_are_the_live_observers_instants(result):
    # The instants the streaming SLO tracker and hot-shard detector
    # produced on this run, to the bit.
    assert result.alert_at == 1089.3165392289845
    assert result.breach_at == 1105.5900504298468
    assert result.detected_at == 48.86333242439511


def test_hot_shard_detector_localizes_the_skewed_replica(result):
    assert result.hot_shard_localized
    assert result.detected_hot == result.hot_owner
    assert result.detected_at is not None
    # The ring owner of the hot service is what the detector must name.
    assert result.router.ring.owner(result.hot_service) == result.hot_owner


def test_fleet_rollup_sees_the_skew(result):
    calls = {name: n for name, (n, _) in result.served.items()}
    total = sum(calls.values())
    ownership = result.router.ring.ownership()
    hot = result.hot_owner
    # The hot replica serves far more than its ring arc.
    assert calls[hot] / total > 2.0 * ownership[hot]
    assert sum(faults for _, faults in result.served.values()) > 0


def test_replica_table_lists_calls_share_owned_and_faults(result):
    header, *rows = result.replica_table().splitlines()
    assert header.split() == ["replica", "calls", "share", "owned", "faults"]
    assert len(rows) == len(result.served)
    ownership = result.router.ring.ownership()
    total = sum(calls for calls, _ in result.served.values())
    for row in rows:
        name, calls, share, owned, faults = row.split()
        assert result.served[name] == (int(calls), int(faults))
        assert share == f"{int(calls) / total:.1%}"
        assert owned == f"{ownership[name]:.1%}"


def test_profiler_reports_throughput_and_split(result):
    prof = result.profiler
    assert prof.events_dispatched > 10_000
    assert prof.events_per_second() > 0
    assert 0.0 < prof.telemetry_fraction() < 0.5
    assert prof.simulation_seconds() > 0


def test_render_contains_the_dashboard_sections(result):
    text = result.render()
    assert "owned" in text
    assert "hot shard: detected=" in text
    assert "alert lead time" in text
    assert "kernel profile:" in text
    assert "events/second" in text


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        run_controltower(replicas=1)
    with pytest.raises(ValueError):
        run_controltower(workers=1)


# -- the burn/breach replay against a from-scratch oracle --------------------

def _request(ts, side="client", fault=None, origin=None, kind="ws.request"):
    return EventBus(SimpleNamespace(now=ts)).emit(
        kind, layer="ws", side=side, fault=fault, origin=origin)


def _oracle(events, matches, target, rule, compliance_window, min_samples,
            end):
    """Recount every window from scratch at every sample."""
    samples = [(ev.ts, ev.get("fault") is not None)
               for ev in events if matches(ev)]
    steps = [(n, ts) for n, (ts, _) in enumerate(samples, 1)]
    alert_at = breach_at = None
    for n, now in steps + [(len(samples), end)]:
        def window(length):
            inside = [bad for ts, bad in samples[:n] if ts > now - length]
            return len(inside), (sum(inside) / len(inside) if inside
                                 else 0.0)

        short, long_, factor = rule
        budget = 1.0 - target
        if (alert_at is None and window(short)[1] / budget >= factor
                and window(long_)[1] / budget >= factor):
            alert_at = now
        total, bad_fraction = window(compliance_window)
        if (breach_at is None and total >= min_samples
                and 1.0 - bad_fraction < target):
            breach_at = now
    return alert_at, breach_at


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                          st.booleans()), max_size=60),
       st.integers(0, 12))
# Goods leaving the long window at the run's end raise its burn: only
# the final step at ``end`` sees the alert.
@example([(0, False, True), (2, False, True), (5, True, True)], 1)
def test_burn_and_breach_replay_equals_a_from_scratch_recount(stream, tail):
    events, ts = [], 0.0
    for step, faulted, client in stream:
        ts += step / 2
        events.append(_request(ts, side="client" if client else "server",
                               fault="Server" if faulted else None))
    args = dict(matches=lambda ev: ev.get("side") == "client",
                target=0.8, rule=(1.0, 4.0, 2.0), compliance_window=10.0,
                min_samples=4, end=ts + tail / 2)
    assert first_burn_and_breach(events, **args) == _oracle(events, **args)


def test_burn_needs_both_windows_and_breach_needs_min_samples():
    # Ten good samples, then two bad ones in quick succession.
    events = [_request(float(t)) for t in range(10)]
    events += [_request(10.0, fault="Server"), _request(10.5, fault="Server")]
    args = dict(matches=lambda ev: True, target=0.9, rule=(1.0, 5.0, 3.0),
                compliance_window=100.0, end=11.0)
    # Short window all bad at 10.0; the long one (6..10) holds 1 bad of
    # 5 = burn 2 < 3 until the second bad sample makes it 2 of 6.
    alert, breach = first_burn_and_breach(events, min_samples=5, **args)
    assert alert == 10.5
    # 2 bad of 12 = 0.833 good < 0.9 at the second bad sample ...
    assert breach == 10.5
    # ... unless the compliance window must hold more samples first.
    assert first_burn_and_breach(events, min_samples=13, **args) == (10.5,
                                                                     None)


def test_warm_history_holds_the_breach_off_behind_the_burn_alert():
    # 150 s of good history inside the 200 s compliance window holds the
    # breach off while the 10 s / 50 s burn windows cross early.
    events = [_request(float(t)) for t in range(150)]
    events += [_request(150.0 + t, fault="Server") for t in range(40)]
    args = dict(matches=lambda ev: True, target=0.9, rule=(10.0, 50.0, 2.0),
                compliance_window=200.0, min_samples=20, end=190.0)
    alert, breach = first_burn_and_breach(events, **args)
    # Burn 2x a 0.1 budget = 10 bad of the long window's 50 samples.
    assert alert == 159.0
    # Good 150 of 167 < 0.9 only at the 17th bad sample.
    assert breach == 166.0
    assert alert < breach
    # Without the warm history the breach comes no later than the alert.
    cold_alert, cold_breach = first_burn_and_breach(events[130:], **args)
    assert cold_breach <= cold_alert


def test_served_counts_skip_client_side_and_originless_requests():
    events = [_request(1.0, side="server", origin="a"),
              _request(2.0, side="server", origin="a", fault="Boom"),
              _request(3.0, side="server", origin="b"),
              _request(4.0, side="client", origin="a"),
              _request(5.0, side="server"),
              _request(6.0, side="server", origin="b",
                       kind="router.rebalance")]
    # Counts are by side and origin, whatever the recorded kind.
    assert served_by_replica(events) == {"a": (2, 1), "b": (2, 0)}
    assert served_by_replica([]) == {}


# -- the hot-shard replay ----------------------------------------------------

def _served(origins, start=1.0):
    return [_request(start + i, side="server", origin=origin)
            for i, origin in enumerate(origins)]


OWNERSHIP = {"large": 0.6, "mid": 0.3, "small": 0.1}


def test_first_hot_names_the_replica_serving_past_its_arc():
    # "large" serves the most calls but under its arc; "small" serves a
    # quarter of the calls against a tenth of the ring: score 2.5.
    events = _served(["large", "large", "mid", "small"] * 4)
    assert first_hot(events, OWNERSHIP, window=100.0, threshold=2.0,
                     min_samples=8, check_every=4, end=20.0) == (8.0, "small")


def test_first_hot_ignores_proportional_load_and_short_windows():
    proportional = _served(["large"] * 6 + ["mid"] * 3 + ["small"])
    assert first_hot(proportional, OWNERSHIP, window=100.0, threshold=2.0,
                     min_samples=1, check_every=5, end=11.0) is None
    # A window that never holds min_samples never judges.
    skewed = _served(["small"] * 12)
    assert first_hot(skewed, OWNERSHIP, window=2.0, threshold=2.0,
                     min_samples=3, check_every=1, end=13.0) is None
    # Client-side requests are not load on a replica.
    clients = [_request(float(t), origin="small") for t in range(10)]
    assert first_hot(clients, OWNERSHIP, window=100.0, threshold=2.0,
                     min_samples=1, check_every=1, end=10.0) is None


def test_first_hot_refuses_a_ring_that_changed_mid_run():
    events = _served(["small"] * 4)
    events.insert(2, _request(2.5, kind="router.rebalance"))
    with pytest.raises(ValueError):
        first_hot(events, OWNERSHIP, window=100.0, threshold=2.0,
                  min_samples=1, check_every=1, end=5.0)


def _ring(*nodes):
    ring = HashRing()
    for node in nodes:
        ring.add(node)
    return ring.ownership()


def test_first_hot_flags_ninety_percent_of_load_on_one_of_three_replicas():
    ownership = _ring("a", "b", "c")
    # 90% of load on one of three replicas: score ~= 0.9 / ~0.33 > 2.
    skewed = _served((["a"] * 9 + ["b"]) * 2, start=0.0)
    args = dict(window=100.0, threshold=2.0, min_samples=10,
                check_every=10)
    assert 0.9 / ownership["a"] >= 2.0
    assert first_hot(skewed, ownership, end=20.0, **args) == (9.0, "a")
    # Balanced traffic on the same ring is never hot.
    balanced = _served(list("abc") * 10, start=150.0)
    assert first_hot(balanced, ownership, end=180.0, **args) is None


def test_first_hot_score_is_served_share_over_owned_arc():
    ownership = _ring("a", "b")
    events = _served(["a"] * 10, start=0.0)
    args = dict(window=1000.0, min_samples=1, check_every=1, end=10.0)
    # All load on "a": its score is exactly 1 / its arc, "b" scores 0.
    score = 1.0 / ownership["a"]
    assert first_hot(events, ownership, threshold=score, **args) == (0.0, "a")
    assert first_hot(events, ownership,
                     threshold=math.nextafter(score, math.inf),
                     **args) is None

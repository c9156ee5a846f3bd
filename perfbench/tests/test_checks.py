"""The benchmark's own checks catch planted faults, and tracing changes
nothing the program outputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy

import pytest

from repro.atproto import cbor
from repro.core import export, integrity
from repro.simulation.config import SimulationConfig
from repro.simulation.world import World

from perfbench import checks, tracing, workloads

SEED = 3


@pytest.fixture(scope="module")
def crawl():
    """A finished tiny world, the stream tally, every firehose event it
    published, and one read pass over it with its failure count."""
    world = World(SimulationConfig.tiny(seed=SEED))
    tally = checks.StreamTally()
    events = []
    world.add_firehose_observer(tally.observe)
    world.add_firehose_observer(events.append)
    world.run(workers=1)
    outputs, _calls, failures = workloads.Crawler(world).one_pass()
    return world, tally, events, outputs, failures


def test_clean_pass_passes(crawl):
    _world, tally, _events, outputs, failures = crawl
    assert failures == 0
    assert workloads.check_pass(outputs, tally) == []


def test_flipped_car_byte_fails(crawl, monkeypatch):
    """The corrupted CARs the crawl feeds to the verifier are rejected by
    the program as it is, and the check fails on a verifier that skips
    block digests or the commit signature."""
    world, tally, _events, _outputs, _failures = crawl
    assert workloads.check_verifier(world, tally) == []
    real = integrity.import_car

    def no_digests(car, verify_key=None, verify_digests=True, check_mst=False):
        return real(car, verify_key=verify_key, verify_digests=False, check_mst=check_mst)

    monkeypatch.setattr(integrity, "import_car", no_digests)
    problems = workloads.check_verifier(world, tally)
    assert any("record byte flipped accepted" in problem for problem in problems)
    assert any("MST node byte flipped" in problem for problem in problems)
    assert not any("wrong key" in problem for problem in problems)

    def no_signature(car, verify_key=None, verify_digests=True, check_mst=False):
        return real(car, verify_key=None, verify_digests=verify_digests, check_mst=check_mst)

    monkeypatch.setattr(integrity, "import_car", no_signature)
    problems = workloads.check_verifier(world, tally)
    assert [p for p in problems if "wrong key accepted" in p] == problems != []


def test_dropped_firehose_event_fails(crawl):
    world, tally, events, outputs, _failures = crawl
    # A create whose record is still live at the end, so the repo the
    # relay serves must differ from the short tally.
    creates = [
        e
        for e in events
        if e.kind == "#commit"
        and e.ops[0].action == "create"
        and e.ops[0].path in tally.live.get(e.did, {})
        and e.did not in tally.tombstoned
    ]
    dropped = creates[len(creates) // 2]
    short = checks.StreamTally()
    full = checks.StreamTally()
    for event in events:
        full.observe(event)
        if event is not dropped:
            short.observe(event)
    commits_total = world.telemetry.registry.family("sim_commits_total").total()
    assert checks.check_commit_total(commits_total, full) == []
    assert workloads.check_pass(outputs, full) == []
    assert checks.check_commit_total(commits_total, short) != []
    assert workloads.check_pass(outputs, short) != []


def test_out_of_order_timeline_fails(crawl):
    _world, tally, _events, outputs, _failures = crawl
    viewer, response = next(
        (key[1], value)
        for key, value in outputs.items()
        if key[0] == "getTimeline"
        and len({item["post"]["indexedAt"] for item in value["feed"]}) >= 2
    )
    assert checks.check_timeline(viewer, response, workloads.TIMELINE_LIMIT, tally) == []
    planted = copy.deepcopy(response)
    planted["feed"][0], planted["feed"][-1] = planted["feed"][-1], planted["feed"][0]
    assert checks.check_timeline(viewer, planted, workloads.TIMELINE_LIMIT, tally) != []


def test_traced_run_matches_untraced_and_restores_bindings():
    before = {
        "cbor_encode": cbor.cbor_encode,
        "world_init": World.__dict__["__init__"],
        "export_artefacts": export.export_artefacts,
    }
    untraced = workloads.run("study-tiny", SEED, 1, repeats=1)
    tracer = tracing.LayerTracer()
    traced = workloads.run("study-tiny", SEED, 1, tracer=tracer, repeats=1)
    assert untraced.problems == [] and traced.problems == []
    assert traced.fingerprints == untraced.fingerprints
    assert not tracer.active
    assert cbor.cbor_encode is before["cbor_encode"]
    assert World.__dict__["__init__"] is before["world_init"]
    assert export.export_artefacts is before["export_artefacts"]
    layers = tracing.layer_metrics(tracer, traced.region_s, traced.commits, traced.cache)
    assert layers["engine.commits"][0] == untraced.commits > 0
    assert layers["relay.publish.calls"][0] > 0 and layers["cbor.decode.calls"][0] > 0


def test_only_stream_explained_handle_quarantines_pass():
    from repro.atproto.events import HandleEvent
    from repro.core.integrity import IntegrityReport, QuarantinedItem

    tally = checks.StreamTally()
    did = "did:plc:" + "a" * 24
    for seq, handle in enumerate(("old.example.com", "new.bsky.social"), start=1):
        tally.observe(HandleEvent(seq=seq, did=did, time_us=seq, handle=handle))
    stale = QuarantinedItem(
        "example.com", "handle-bidi", "old.example.com",
        "DID %s points back at 'new.bsky.social'" % did,
    )
    assert checks.stale_handle(stale, tally)
    for planted in (
        QuarantinedItem("example.com", "handle-bidi", "old.example.com",
                        "DID %s points back at 'other.bsky.social'" % did),
        QuarantinedItem("example.com", "handle-bidi", "new.bsky.social",
                        "DID %s points back at 'new.bsky.social'" % did),
        QuarantinedItem("relay", "block-digest", did, "digest mismatch"),
    ):
        assert not checks.stale_handle(planted, tally)
    report = IntegrityReport(quarantined=[stale, stale])
    assert checks.stale_handle_quarantines(report, tally) == 2

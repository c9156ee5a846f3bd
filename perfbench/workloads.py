"""The three workloads.

Each workload runs closed-loop in one process with ``workers=1`` and is
made of whole rounds: a study per seed for ``study-small`` and
``study-tiny``, a read pass over the whole network for ``repo-crawl``.
The number of rounds depends only on ``--seconds`` (through the nominal
round length below), never on how fast this machine happens to be, so
the same arguments always attempt exactly the same operations.

A workload returns a :class:`Result`: the timings the end-to-end metrics
are made from, the operation counts, the problems the checks found, and
one fingerprint per seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.atproto.keys import public_key_from_did_key
from repro.core import export, report
from repro.core.integrity import IntegrityMonitor
from repro.core.pipeline import MeasurementPipeline
from repro.obs.metrics import READ_CACHE_HITS, READ_CACHE_MISSES
from repro.services.xrpc import XrpcError
from repro.simulation.config import REPO_SNAPSHOT_US, SimulationConfig
from repro.simulation.world import World

from perfbench import checks

# Nominal seconds one round takes on the reference host (2 cores,
# Python 3.11); ``rounds = max(1, round(seconds / nominal))``.
NOMINAL_ROUND_S = {"study-small": 40.0, "study-tiny": 3.0, "repo-crawl": 0.5}

# A study's set-up (World construction and pipeline wiring) is repeated
# and its median reported, so one slow moment of the host does not decide
# ``setup_s``.
SETUP_REPEATS = 5

# repo-crawl reads this many worlds (seeds seed..seed+3) one after the
# other: their builds are its set-up samples, and the work in one tiny
# world varies by about 13% from seed to seed, which four worlds average.
# Each world's simulation costs about 3 s of set-up, which is why there
# are not more: a run of every workload must stay near two minutes.
CRAWL_WORLDS = 4

TIMELINE_LIMIT = 50
FEED_LIMIT = 50
LIST_REPOS_PAGE = 50

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


@dataclass
class Result:
    """Times are host-speed-normalized seconds (see hostspeed.py) when the
    run had a :class:`HostSpeed` sampler, raw seconds otherwise; the raw
    ones are kept alongside."""

    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0
    raw_setup_s: list = field(default_factory=list)
    raw_wall_s: float = 0.0
    commits: int = 0
    repos_verified: int = 0
    # The seconds over which ``commits`` were made and ``repos_verified``
    # fetched and verified (normalized like the other times).
    commit_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    # seed -> stale-handle quarantines (studies; see checks.py)
    stale_handles: dict = field(default_factory=dict)
    # The set-up and measured regions together (the region a traced run
    # traces, timed the same way with tracing off), normalized and raw.
    region_s: float = 0.0
    raw_region_s: float = 0.0
    cache: dict = field(default_factory=lambda: {"hits": {}, "misses": {}})

    def add_cache(self, registry) -> None:
        for key, name in (("hits", READ_CACHE_HITS), ("misses", READ_CACHE_MISSES)):
            family = registry.family(name)
            if family is None:
                continue
            for cache, count in family.sum_by(0).items():
                self.cache[key][cache] = self.cache[key].get(cache, 0) + count


def _timed(fn, speed):
    """(fn(), raw seconds, normalized seconds)."""
    gc.collect()
    start = time.perf_counter()
    value = fn()
    end = time.perf_counter()
    if speed is None:
        return value, end - start, end - start
    raw, normalized = speed.region(start, end)
    return value, raw, normalized


def _add_setup(result: Result, raw: float, normalized: float) -> None:
    result.raw_setup_s.append(raw)
    result.setup_s.append(normalized)


def _add_round(result: Result, raw: float, normalized: float) -> None:
    result.raw_wall_s += raw
    result.wall_s += normalized


@contextmanager
def _region(tracer, speed, result: Result):
    """Time the enclosed set-up and measured region into
    ``result.region_s``, with the layer wrappers installed for its
    duration when ``tracer`` is given."""
    if tracer is not None:
        from perfbench.tracing import install_layers

        install_layers(tracer)
    start = time.perf_counter()
    try:
        yield
    finally:
        end = time.perf_counter()
        raw, normalized = speed.region(start, end) if speed else (end - start, end - start)
        result.raw_region_s += raw
        result.region_s += normalized
        if tracer is not None:
            tracer.restore()


def _observer(tally, tracer):
    return tally.observe if tracer is None else tracer.wrap(tally.observe, "bench.checks")


def verify_key(world, did):
    """The signing key the DID document names, as the crawl resolves it."""
    doc = world.resolver.resolve(did)
    if doc is None or doc.signing_key is None:
        return None
    return public_key_from_did_key(doc.signing_key)


def check_verifier(world, tally) -> list:
    """Corrupted copies of one served repo CAR must each be rejected
    (checks.check_verifier); run outside every timed region."""
    did = tally.repo_dids()[0]
    relay = world.relay.url
    car = world.services.call(relay, "com.atproto.sync.getRepo", did=did)
    return checks.check_verifier(relay, did, car, verify_key(world, did))


# ---------------------------------------------------------------------------
# study-small / study-tiny
# ---------------------------------------------------------------------------


def _build_study(config, tracer):
    """World construction and pipeline wiring with the benchmark's own
    stream tally and frame digest attached (the study's set-up)."""
    world = World(config)
    tally = checks.StreamTally()
    world.add_firehose_observer(_observer(tally, tracer))
    world.schedule(REPO_SNAPSHOT_US, lambda now_us: tally.take_snapshot("repo"))
    frame_digest = export.firehose_frame_observer(world)
    pipeline = MeasurementPipeline(world, workers=1)
    return world, tally, frame_digest, pipeline


def _time_snapshot_crawl(pipeline, spans: list) -> None:
    """Record the (start, end) of each snapshot crawl the pipeline makes,
    so that the studies' ``repos_per_s`` is the crawl's own rate.  The
    instance attribute calls through the class attribute, so a layer
    tracer's wrapper there still sees the call."""
    collector = pipeline.repo_collector

    def crawl(*args, **kwargs):
        start = time.perf_counter()
        try:
            return type(collector).crawl(collector, *args, **kwargs)
        finally:
            spans.append((start, time.perf_counter()))

    collector.crawl = crawl


def _study_round(config, tracer, speed, result: Result, setup_repeats: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    crawl_spans: list = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:

        def measured():
            datasets = pipeline.run()
            text = report.full_report(datasets)
            written = export.export_artefacts(datasets, directory)
            return datasets, text, written

        with _region(tracer, speed, result):
            for _ in range(setup_repeats):
                built, raw, normalized = _timed(lambda: _build_study(config, tracer), speed)
                _add_setup(result, raw, normalized)
            world, tally, frame_digest, pipeline = built
            del built
            _time_snapshot_crawl(pipeline, crawl_spans)
            (datasets, text, written), raw, normalized = _timed(measured, speed)
        _add_round(result, raw, normalized)
        result.commit_s += normalized
        for start, end in crawl_spans:
            result.verify_s += speed.region(start, end)[1] if speed else end - start
        registry = world.telemetry.registry
        commits = registry.family("sim_commits_total").total()
        repos = datasets.repositories
        result.commits += commits
        result.repos_verified += repos.verified_signatures
        snapshot = tally.snapshots["repo"]
        attempted, failed = checks.snapshot_operations(repos, snapshot)
        result.attempted += attempted
        result.failed += failed
        result.add_cache(registry)
        result.problems += checks.check_table1(datasets, tally)
        result.problems += checks.check_commit_total(commits, tally)
        result.problems += checks.check_snapshot(repos, snapshot)
        result.problems += checks.check_integrity(repos, datasets.integrity, snapshot, tally)
        result.problems += checks.check_artefacts(text, written)
        result.problems += check_verifier(world, tally)
    result.fingerprints[config.seed] = export.study_fingerprint(datasets, frame_digest)
    result.stale_handles[config.seed] = checks.stale_handle_quarantines(datasets.integrity, tally)


def run_study(preset: str, seeds: list, tracer, speed, setup_repeats: int) -> Result:
    result = Result()
    for seed in seeds:
        config = getattr(SimulationConfig, preset)(seed=seed)
        _study_round(config, tracer, speed, result, setup_repeats)
        gc.collect()
    return result


# ---------------------------------------------------------------------------
# repo-crawl
# ---------------------------------------------------------------------------


class Crawler:
    """One read pass over a finished world through its XRPC directory."""

    def __init__(self, world):
        self.world = world
        self.services = world.services
        self.relay = world.relay.url
        self.appview = world.appview.url
        self.monitor = IntegrityMonitor(directory=world.services)

    def one_pass(self) -> tuple:
        """Returns (outputs, calls, failures).  ``outputs`` maps each read
        to a compact form of its answer; a failed call maps to None."""
        call = self.services.call
        outputs: dict = {}
        calls = failures = 0
        dids: list = []
        cursor = None
        page_index = 0
        while True:
            calls += 1
            try:
                page = call(
                    self.relay, "com.atproto.sync.listRepos", cursor=cursor, limit=LIST_REPOS_PAGE
                )
            except XrpcError:
                failures += 1
                outputs[("listRepos", page_index)] = None
                break
            rows = [(row["did"], row["head"], row["rev"]) for row in page["repos"]]
            outputs[("listRepos", page_index)] = rows
            dids.extend(row[0] for row in rows)
            cursor = page.get("cursor")
            page_index += 1
            if cursor is None:
                break
        for did in dids:
            calls += 1
            try:
                car = call(self.relay, "com.atproto.sync.getRepo", did=did)
            except XrpcError:
                failures += 1
                outputs[("getRepo", did)] = None
                continue
            snapshot = self.monitor.verify_repo_car(
                self.relay, did, car, verify_key=verify_key(self.world, did)
            )
            if snapshot is None:
                failures += 1
            outputs[("getRepo", did)] = snapshot and (
                str(snapshot.commit_cid),
                snapshot.rev,
                snapshot.record_cids,
            )
        for user in self.world.live_users():
            for method, key, params in (
                ("app.bsky.feed.getTimeline", "getTimeline", {"limit": TIMELINE_LIMIT}),
                ("app.bsky.actor.getProfile", "getProfile", {}),
            ):
                calls += 1
                try:
                    outputs[(key, user.did)] = call(self.appview, method, actor=user.did, **params)
                except XrpcError:
                    failures += 1
                    outputs[(key, user.did)] = None
        for feed in self.world.feeds:
            if not feed.announced or feed.feed_obj is None:
                continue
            if not self.services.is_reachable(feed.endpoint):
                continue
            calls += 1
            try:
                outputs[("getFeed", feed.uri)] = call(
                    self.appview, "app.bsky.feed.getFeed", feed=feed.uri, limit=FEED_LIMIT
                )
            except XrpcError:
                failures += 1
                outputs[("getFeed", feed.uri)] = None
        return outputs, calls, failures


def check_pass(outputs: dict, tally: checks.StreamTally) -> list:
    """Every output of one pass against the stream tally."""
    problems = []
    listed = []
    for key, value in outputs.items():
        kind, subject = key
        if value is None:
            problems.append("%s %s failed" % key)
        elif kind == "listRepos":
            listed.extend(row[0] for row in value)
        elif kind == "getRepo":
            problems += checks.check_repo_cids(subject, value[2], tally)
        elif kind == "getTimeline":
            problems += checks.check_timeline(subject, value, TIMELINE_LIMIT, tally)
        elif kind == "getProfile":
            problems += checks.check_profile(subject, value, tally)
        elif kind == "getFeed":
            problems += checks.check_feed(subject, value, FEED_LIMIT, tally)
    if listed != tally.repo_dids():
        problems.append(
            "listRepos listed %d repos, the stream has %d" % (len(listed), len(tally.repo_dids()))
        )
    return problems


def crawl_fingerprint(outputs: dict) -> str:
    """sha256 over one pass's answers in a canonical form."""
    hasher = hashlib.sha256()
    for key in sorted(outputs, key=repr):
        value = outputs[key]
        if key[0] == "getRepo" and value is not None:
            value = (value[0], value[1], sorted((path, str(cid)) for path, cid in value[2].items()))
        hasher.update(json.dumps([list(key), value], sort_keys=True, default=str).encode())
    return hasher.hexdigest()


def _build_crawl_world(seed: int, tracer, speed, result: Result):
    """A tiny world with the stream tally attached, simulated to its end.
    The simulation's own time is what repo-crawl's ``commits_per_s``
    divides by."""
    world = World(SimulationConfig.tiny(seed=seed))
    tally = checks.StreamTally()
    world.add_firehose_observer(_observer(tally, tracer))
    start = time.perf_counter()
    world.run(workers=1)
    end = time.perf_counter()
    result.commit_s += speed.region(start, end)[1] if speed else end - start
    return world, tally


def _crawl_world(seed: int, passes: int, tracer, speed, result: Result) -> None:
    with _region(tracer, speed, result):
        (world, tally), raw, normalized = _timed(
            lambda: _build_crawl_world(seed, tracer, speed, result), speed
        )
        _add_setup(result, raw, normalized)
        result.commits += world.telemetry.registry.family("sim_commits_total").total()
        crawler = Crawler(world)
        # The warm-up pass fills the relay's CAR cache and the AppView's
        # view caches; it is checked in full against the stream tally and
        # every measured pass must answer exactly as it did.
        reference, _, _ = crawler.one_pass()
        for _ in range(passes):
            (outputs, calls, failures), raw, normalized = _timed(crawler.one_pass, speed)
            _add_round(result, raw, normalized)
            result.verify_s += normalized
            result.attempted += calls
            result.failed += failures
            result.repos_verified += sum(
                1 for key, value in outputs.items() if key[0] == "getRepo" and value is not None
            )
            if outputs != reference:
                differing = [key for key in reference if outputs.get(key) != reference[key]]
                result.problems.append(
                    "pass differs from the first pass on %d reads, e.g. %s"
                    % (len(differing), differing[:2])
                )
    result.problems += check_pass(reference, tally)
    result.add_cache(world.telemetry.registry)
    result.problems += check_verifier(world, tally)
    result.fingerprints[seed] = crawl_fingerprint(reference)


def run_crawl(seeds: list, passes: int, tracer, speed) -> Result:
    """``passes`` measured passes over each seed's world, one world at a
    time; each world's build and simulation is one set-up sample."""
    result = Result()
    for seed in seeds:
        _crawl_world(seed, passes, tracer, speed, result)
        gc.collect()
    return result


def run(
    workload: str,
    seed: int,
    seconds: int,
    tracer=None,
    repeats: int = SETUP_REPEATS,
    speed=None,
) -> Result:
    """Run ``workload``.  ``speed`` is a running :class:`HostSpeed`
    sampler (times are then normalized), ``tracer`` a
    :class:`LayerTracer` to install around set-up and measured phase."""
    if workload == "repo-crawl":
        seeds = [seed + i for i in range(CRAWL_WORLDS)]
        passes = max(1, round(rounds_for(workload, seconds) / CRAWL_WORLDS))
        return run_crawl(seeds, passes, tracer, speed)
    n = rounds_for(workload, seconds)
    if workload == "study-small":
        return run_study("small", [seed + i for i in range(n)], tracer, speed, repeats)
    if workload == "study-tiny":
        return run_study("tiny", [seed + i for i in range(n)], tracer, speed, repeats)
    raise ValueError("unknown workload %r" % workload)


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0

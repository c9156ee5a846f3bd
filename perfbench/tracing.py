"""Layer tracing from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer with
wrappers, from the benchmark's own files: for a module-level function it
patches every ``repro.*`` module binding that imported it, for a method
the class attribute.  A *span* wrapper records name, start, end and
parent and keeps a running self time (its duration minus the time its
wrapped children took); a *count* wrapper only counts calls and, where
asked, bytes.  :meth:`LayerTracer.restore` puts every original back.

Self times and counts are aggregated as the calls happen, so they are
exact however many calls a run makes.  Span records are kept in memory
up to ``max_spans`` and written at the end as a Chrome trace-event file
(the format ``python -m repro --trace-out`` writes); spans past the cap
are still aggregated, and the file says how many were left out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class LayerTracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        # name -> [calls, inclusive seconds, self seconds, bytes]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # name -> [calls, bytes] for count-only wrappers
        self.counts: dict = defaultdict(lambda: [0, 0])
        # name -> inclusive durations (only for names asked to keep them)
        self.durations: dict = {}
        self.spans: list = []  # (id, parent id, name, start s, end s)
        self.spans_dropped = 0
        self._stack: list = []  # open spans: [span id, child seconds]
        self._next_id = 0
        self._patches: list = []  # (owner, attr, original, owned)
        self.origin = time.perf_counter()

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name, nbytes=None, keep_durations=False):
        stack = self._stack
        stat = self.stats[name]
        spans = self.spans
        durations = self.durations.setdefault(name, []) if keep_durations else None
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if nbytes is not None:
                    stat[3] += nbytes(args, kwargs)
                if durations is not None:
                    durations.append(elapsed)
                if len(spans) < tracer.max_spans:
                    spans.append((span_id, parent, name, start, end))
                else:
                    tracer.spans_dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name, result_bytes=None, arg_bytes=None):
        count = self.counts[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count[0] += 1
            if result_bytes is not None:
                count[1] += len(result)
            elif arg_bytes is not None:
                count[1] += len(args[arg_bytes])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, fn, name: str):
        """A span wrapper around ``fn`` that patches nothing (for the
        benchmark's own callables, so their time is not charged to the
        program layer that calls them)."""
        return self._span_wrapper(fn, name)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program (the host-speed
        sampler) out of the self time of the span that is open."""
        if self._stack:
            self._stack[-1][1] += seconds

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, value)

    def span_method(self, cls, attr: str, name: str, **options) -> None:
        self._set(cls, attr, self._span_wrapper(getattr(cls, attr), name, **options))

    def count_method(self, cls, attr: str, name: str, **options) -> None:
        self._set(cls, attr, self._count_wrapper(getattr(cls, attr), name, **options))

    def span_function(self, module, attr: str, name: str, **options) -> int:
        """Wrap ``module.attr`` in every ``repro.*`` module that bound it;
        returns the number of bindings patched."""
        original = getattr(module, attr)
        wrapper = self._span_wrapper(original, name, **options)
        return self._patch_bindings(original, wrapper)

    def count_function(self, module, attr: str, name: str, only=None, **options) -> int:
        original = getattr(module, attr)
        wrapper = self._count_wrapper(original, name, **options)
        if only is not None:
            self._set(only, attr, wrapper)
            return 1
        return self._patch_bindings(original, wrapper)

    def _patch_bindings(self, original, wrapper) -> int:
        patched = 0
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every wrapped name back, newest patch first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def active(self) -> bool:
        return bool(self._patches)

    # -- results ------------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def incl_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name][0]
        return self.counts[name][0] if name in self.counts else 0

    def nbytes(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name][3]
        return self.counts[name][1] if name in self.counts else 0

    def total_self_s(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def chrome_trace(self) -> dict:
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_kept": len(events), "spans_dropped": self.spans_dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names are ``<layer>.<op>``; the per-layer metrics in
    :func:`layer_metrics` are derived from them."""
    from repro.atproto import car, cbor, cid, keys, lexicon, mst, repo, tid
    from repro.core import export, integrity, report
    from repro.core.collect import active, diddocs, feedgens, firehose, identifiers, labelers, repos
    from repro.services import appview, feedgen, relay
    from repro.simulation import world

    tracer.span_method(world.World, "__init__", "world.build")
    tracer.span_method(world.World, "run", "engine")
    tracer.span_method(repo.Repo, "apply_writes", "repo.commit")
    tracer.span_method(lexicon.LexiconRegistry, "validate", "lexicon.validate")
    tracer.span_method(mst.Mst, "root_cid", "mst.root_cid")
    tracer.count_function(
        cid, "cid_for_dag_cbor_bytes", "mst.hash", only=mst, arg_bytes=0
    )
    tracer.span_function(mst, "load_mst", "mst.load")
    tracer.count_function(cbor, "cbor_encode", "cbor.encode", result_bytes=True)
    tracer.span_function(cbor, "cbor_decode", "cbor.decode", nbytes=lambda a, k: len(a[0]))
    tracer.count_method(cid.Cid, "__str__", "cid.str")
    tracer.count_method(tid.Tid, "__str__", "tid.str")
    for cls in (keys.HmacKeypair, keys.Secp256k1Keypair):
        tracer.span_method(cls, "sign", "keys.sign")
    for cls in (keys.HmacPublicKey, keys.Secp256k1PublicKey):
        tracer.span_method(cls, "verify", "keys.verify")
    tracer.span_function(repo, "import_car", "car.import")
    tracer.count_function(car, "read_car", "car.read", arg_bytes=0)
    tracer.count_method(repo.Repo, "export_car", "car.export", result_bytes=True)
    tracer.span_method(relay.Relay, "publish_commit", "relay.publish")
    tracer.span_method(relay.Relay, "xrpc_getRepo", "relay.get_repo")
    tracer.span_method(appview.AppView, "consume_event", "appview.ingest")
    for attr in (
        "xrpc_getTimeline",
        "xrpc_getProfile",
        "xrpc_getFeed",
        "xrpc_getFeedGenerator",
        "xrpc_searchPosts",
    ):
        tracer.span_method(appview.AppView, attr, "appview.read", keep_durations=True)
    tracer.span_method(feedgen.FeedGeneratorHost, "xrpc_getFeedSkeleton", "feedgen.skeleton")
    tracer.span_method(firehose.FirehoseCollector, "consume", "collect.firehose")
    tracer.span_method(repos.RepositoriesCollector, "crawl", "collect.repos")
    tracer.span_method(
        integrity.IntegrityMonitor,
        "verify_repo_car",
        "integrity.verify_car",
        nbytes=lambda a, k: len(a[3] if len(a) > 3 else k["car"]),
    )
    for cls, attrs in (
        (identifiers.ListReposCollector, ("crawl",)),
        (diddocs.DidDocumentCollector, ("crawl",)),
        (labelers.LabelerCollector, ("discover", "connect_and_backfill")),
        (feedgens.FeedGeneratorCollector, ("discover", "fetch_metadata", "crawl_feed_posts")),
        (
            active.ActiveMeasurements,
            ("probe_handles", "extract_registered_domains", "scan_whois", "cross_reference_tranco"),
        ),
    ):
        for attr in attrs:
            tracer.span_method(cls, attr, "collect.other")
    tracer.span_function(report, "full_report", "report")
    tracer.span_function(export, "export_artefacts", "export")


def _percentile_us(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index] * 1e6


def layer_metrics(tracer: LayerTracer, wall_s: float, commits: int, cache: dict) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``.

    ``wall_s`` is the traced measured phase, ``commits`` the registry's
    ``sim_commits_total`` over it, and ``cache`` the read-cache counters
    (``{"hits": {cache: n}, "misses": {cache: n}}``)."""
    t = tracer
    per_commit = (lambda n: n / commits) if commits else (lambda n: 0.0)
    app_caches = ("post_view", "profile_view", "timeline_index", "search_page")
    hits, misses = cache["hits"], cache["misses"]
    metrics = {
        "world.build_s": (t.incl_s("world.build"), "s"),
        "engine.self_s": (t.self_s("engine"), "s"),
        "engine.commits": (commits, "count"),
        "repo.commit.self_s": (t.self_s("repo.commit"), "s"),
        "repo.commit.us_per_commit": (per_commit(t.incl_s("repo.commit") * 1e6), "us"),
        "lexicon.validate.calls": (t.calls("lexicon.validate"), "count"),
        "lexicon.validate.self_s": (t.self_s("lexicon.validate"), "s"),
        "mst.root_cid.self_s": (t.self_s("mst.root_cid"), "s"),
        "mst.nodes_hashed_per_commit": (per_commit(t.calls("mst.hash")), "count"),
        "mst.bytes_hashed_per_commit": (per_commit(t.nbytes("mst.hash")), "bytes"),
        "mst.load.self_s": (t.self_s("mst.load"), "s"),
        "cbor.encode.calls": (t.calls("cbor.encode"), "count"),
        "cbor.encode.bytes": (t.nbytes("cbor.encode"), "bytes"),
        "cbor.decode.calls": (t.calls("cbor.decode"), "count"),
        "cbor.decode.bytes": (t.nbytes("cbor.decode"), "bytes"),
        "cbor.decode.self_s": (t.self_s("cbor.decode"), "s"),
        "cid.str.calls": (t.calls("cid.str"), "count"),
        "tid.str.calls": (t.calls("tid.str"), "count"),
        "keys.sign.calls": (t.calls("keys.sign"), "count"),
        "keys.sign.self_s": (t.self_s("keys.sign"), "s"),
        "keys.verify.calls": (t.calls("keys.verify"), "count"),
        "keys.verify.self_s": (t.self_s("keys.verify"), "s"),
        "car.import.self_s": (t.self_s("car.import"), "s"),
        "car.bytes_read": (t.nbytes("car.read"), "bytes"),
        "car.export.calls": (t.calls("car.export"), "count"),
        "car.export.bytes": (t.nbytes("car.export"), "bytes"),
        "relay.publish.calls": (t.calls("relay.publish"), "count"),
        "relay.publish.self_s": (t.self_s("relay.publish"), "s"),
        "relay.get_repo.self_s": (t.self_s("relay.get_repo"), "s"),
        "relay.repo_car.cache_hits": (hits.get("repo_car", 0), "count"),
        "relay.repo_car.cache_misses": (misses.get("repo_car", 0), "count"),
        "appview.ingest.calls": (t.calls("appview.ingest"), "count"),
        "appview.ingest.self_s": (t.self_s("appview.ingest"), "s"),
        "appview.read.calls": (t.calls("appview.read"), "count"),
        "appview.read.p50_us": (_percentile_us(t.durations.get("appview.read", []), 0.50), "us"),
        "appview.read.p99_us": (_percentile_us(t.durations.get("appview.read", []), 0.99), "us"),
        "appview.read.cache_hits": (sum(hits.get(c, 0) for c in app_caches), "count"),
        "appview.read.cache_misses": (sum(misses.get(c, 0) for c in app_caches), "count"),
        "feedgen.skeleton.self_s": (t.self_s("feedgen.skeleton"), "s"),
        "collect.firehose.events": (t.calls("collect.firehose"), "count"),
        "collect.firehose.self_s": (t.self_s("collect.firehose"), "s"),
        "collect.repos.self_s": (t.self_s("collect.repos"), "s"),
        "integrity.verify_car.calls": (t.calls("integrity.verify_car"), "count"),
        "integrity.verify_car.self_s": (t.self_s("integrity.verify_car"), "s"),
        "integrity.verify_car.bytes": (t.nbytes("integrity.verify_car"), "bytes"),
        "collect.other.self_s": (t.self_s("collect.other"), "s"),
        "report.self_s": (t.self_s("report"), "s"),
        "export.self_s": (t.self_s("export"), "s"),
        "bench.checks.self_s": (t.self_s("bench.checks"), "s"),
        # Can read a hair below zero: the spans' clocks and the region's
        # are read at slightly different moments.
        "unattributed_s": (wall_s - t.total_self_s(), "s"),
    }
    return metrics

"""Output checks made apart from the program.

:class:`StreamTally` is the benchmark's own firehose observer.  It keeps
its own account of the stream (events by kind, live record paths per DID
with their CIDs, live posts, live follows, profile names) and every check
below compares a program output against that account or against a
property the method must have.  Nothing here compares against a stored
copy of an earlier run's output.

Each check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import os
import re
from collections import Counter

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import cid_for_dag_cbor_bytes
from repro.atproto.events import ALL_KINDS, KIND_COMMIT, CommitEvent, HandleEvent, TombstoneEvent
from repro.atproto.keys import make_keypair
from repro.atproto.lexicon import FEED_GENERATOR, FOLLOW, LABELER_SERVICE, POST
from repro.core.analysis.summary import EVENT_LABELS, table1_firehose_event_types
from repro.core.integrity import (
    KIND_BLOCK_DIGEST,
    KIND_COMMIT_SIGNATURE,
    KIND_HANDLE_BIDI,
    IntegrityMonitor,
)
from repro.simulation.config import FIREHOSE_COLLECT_START_US

# Records the engine writes outside the activity model: labeler service
# records and feed-generator records are queued with counts_for_noise
# False, so they are commits on the stream but not in sim_commits_total.
_UNCOUNTED_COLLECTIONS = (LABELER_SERVICE, FEED_GENERATOR)

# Snapshot rows the repositories dataset keeps per collection.
_ROW_COLLECTIONS = {
    "app.bsky.feed.like": "likes",
    FOLLOW: "follows",
    "app.bsky.feed.repost": "reposts",
    "app.bsky.graph.block": "blocks",
}


class StreamTally:
    """Tally of the firehose as an independent consumer sees it.

    Attach with ``world.add_firehose_observer(tally.observe)`` before the
    world runs.  ``window_start_us`` is the study's collection start, so
    ``window_kinds`` is what Table 1 must report.
    """

    def __init__(self, window_start_us: int = FIREHOSE_COLLECT_START_US):
        self.window_start_us = window_start_us
        self.kinds: Counter = Counter()
        self.window_kinds: Counter = Counter()
        self.counted_commits = 0
        # did -> {path: record cid}
        self.live: dict[str, dict] = {}
        # post uri -> event time (the AppView's indexedAt)
        self.post_time_us: dict[str, int] = {}
        # did -> {follow path: subject did}
        self.follows: dict[str, dict] = {}
        self.display_names: dict[str, str] = {}
        self.tombstoned: set = set()
        # did -> handles announced by #handle events, oldest first
        self.handles: dict[str, list] = {}
        self.snapshots: dict[str, dict] = {}

    def observe(self, event) -> None:
        kind = event.kind
        if kind not in ALL_KINDS:
            return
        self.kinds[kind] += 1
        if event.time_us >= self.window_start_us:
            self.window_kinds[kind] += 1
        if isinstance(event, CommitEvent):
            self._commit(event)
        elif isinstance(event, TombstoneEvent):
            self.tombstoned.add(event.did)
        elif isinstance(event, HandleEvent):
            self.handles.setdefault(event.did, []).append(event.handle)

    def _commit(self, event) -> None:
        did = event.did
        paths = self.live.setdefault(did, {})
        uncounted = True
        for op in event.ops:
            collection, _, _rkey = op.path.partition("/")
            if not (op.action == "create" and collection in _UNCOUNTED_COLLECTIONS):
                uncounted = False
            uri = "at://%s/%s" % (did, op.path)
            if op.action == "delete":
                paths.pop(op.path, None)
                self.post_time_us.pop(uri, None)
                self.follows.get(did, {}).pop(op.path, None)
                continue
            paths[op.path] = op.cid
            record = op.record or {}
            if collection == POST:
                self.post_time_us[uri] = event.time_us
            elif collection == FOLLOW:
                self.follows.setdefault(did, {})[op.path] = record.get("subject")
            elif collection == "app.bsky.actor.profile":
                self.display_names[did] = record.get("displayName", "")
        if not uncounted:
            self.counted_commits += 1

    def take_snapshot(self, name: str) -> None:
        """Freeze the live paths of every repo still mirrored, and the
        DIDs tombstoned so far (a scheduled action calls this at the
        moment the study crawls its snapshot)."""
        self.snapshots[name] = {
            "repos": {
                did: dict(paths)
                for did, paths in self.live.items()
                if did not in self.tombstoned and paths
            },
            "tombstoned": set(self.tombstoned),
        }

    def repo_dids(self) -> list:
        """DIDs the relay must list: at least one commit, not tombstoned."""
        return sorted(did for did in self.live if did not in self.tombstoned)

    def followed_by(self, viewer: str) -> set:
        return set(self.follows.get(viewer, {}).values())


# ---------------------------------------------------------------------------
# Study checks
# ---------------------------------------------------------------------------


def check_table1(datasets, tally: StreamTally) -> list:
    problems = []
    by_label = {EVENT_LABELS[kind]: kind for kind in ALL_KINDS}
    for row in table1_firehose_event_types(datasets):
        expected = tally.window_kinds.get(by_label[row.event_type], 0)
        if row.total != expected:
            problems.append(
                "Table 1 %s: %d reported, %d on the stream" % (row.event_type, row.total, expected)
            )
    return problems


def check_commit_total(sim_commits_total: int, tally: StreamTally) -> list:
    if sim_commits_total != tally.counted_commits:
        return [
            "sim_commits_total %d != %d activity commits observed (%d #commit events)"
            % (sim_commits_total, tally.counted_commits, tally.kinds[KIND_COMMIT])
        ]
    return []


def snapshot_operations(repos, snapshot: dict) -> tuple:
    """(attempted, failed) for one snapshot crawl.  The crawl also asks
    for DIDs an earlier identifier crawl listed and that were tombstoned
    since; the relay rightly answers 404 for those (the paper, too,
    reports fewer repositories than identifiers), so they are not
    operations of the benchmark.  :func:`check_integrity` checks that
    every such 404 is explained by a tombstone on the stream."""
    failed = set(repos.failed_dids) - snapshot["tombstoned"]
    return repos.repo_count + len(failed), len(failed)


def check_snapshot(repos, snapshot: dict) -> list:
    """The repositories dataset against the tally frozen at snapshot time:
    the same DIDs, the same record count per repo, the same number of
    rows per collection and DID, and the same post paths."""
    problems = []
    live = snapshot["repos"]
    crawled = set(repos.records_per_repo)
    if crawled != set(live):
        missing = sorted(set(live) - crawled)[:3]
        extra = sorted(crawled - set(live))[:3]
        problems.append("snapshot DIDs differ: missing %s, unexpected %s" % (missing, extra))
    expected_rows: Counter = Counter()
    expected_posts = set()
    for did, paths in live.items():
        if did in crawled and repos.records_per_repo[did] != len(paths):
            problems.append(
                "%s: %d records crawled, %d live on the stream"
                % (did, repos.records_per_repo[did], len(paths))
            )
        for path in paths:
            collection, _, rkey = path.partition("/")
            if collection in _ROW_COLLECTIONS:
                expected_rows[(_ROW_COLLECTIONS[collection], did)] += 1
            elif collection == POST:
                expected_posts.add((did, rkey))
    got_rows: Counter = Counter()
    for attr in _ROW_COLLECTIONS.values():
        for row in getattr(repos, attr):
            got_rows[(attr, row.did)] += 1
    if got_rows != expected_rows:
        diff = sorted(set(got_rows.items()) ^ set(expected_rows.items()))[:3]
        problems.append("snapshot row counts differ from the stream: %s" % diff)
    got_posts = {(row.did, row.rkey) for row in repos.posts}
    if got_posts != expected_posts:
        problems.append(
            "snapshot posts differ: %d crawled, %d live, %d in common"
            % (len(got_posts), len(expected_posts), len(got_posts & expected_posts))
        )
    return problems


_HANDLE_BIDI = re.compile(r"DID (\S+) points back at '([^']*)'$")


def stale_handle(item, tally: StreamTally) -> bool:
    """True when a handle-bidi quarantine is a stale handle: the DID the
    handle's proof names moved to another handle on the stream, and the
    DID document now names that handle.  A fault-free study meets these
    when a user changes handle between the DID-document snapshot and the
    handle probes, because the old DNS/well-known proof stays up."""
    if item.kind != KIND_HANDLE_BIDI:
        return False
    match = _HANDLE_BIDI.match(item.detail)
    if match is None:
        return False
    did, current = match.groups()
    history = tally.handles.get(did, [])
    return bool(history) and history[-1] == current != item.item


def stale_handle_quarantines(integrity_report, tally: StreamTally) -> int:
    """How many of a study's quarantines are stale handles.  They are a
    fault of the program (see FOUND in CHANGES.md) that shows on some
    seeds only, so they do not fail the run; the count is printed with
    each seed's fingerprint, and the A/B helper requires it to be the
    same on both sides."""
    quarantined = integrity_report.quarantined if integrity_report is not None else ()
    return sum(1 for item in quarantined if stale_handle(item, tally))


def check_integrity(repos, integrity_report, snapshot: dict, tally: StreamTally) -> list:
    """No quarantine but stale handles (counted apart, see
    :func:`stale_handle_quarantines`), a verified signature per repo, and
    no failed fetch other than a 404 for a DID tombstoned before the
    snapshot."""
    problems = []
    for item in integrity_report.quarantined if integrity_report is not None else ():
        if not stale_handle(item, tally):
            problems.append("quarantined %s %s: %s" % (item.kind, item.item, item.detail))
    for did in sorted(repos.failed_dids):
        reason = repos.failure_reasons.get(did, "")
        if did not in snapshot["tombstoned"] or not reason.startswith("xrpc 404"):
            problems.append("repo %s failed to crawl: %s" % (did, reason))
    if repos.verified_signatures != repos.repo_count:
        problems.append(
            "verified_signatures %d != repo_count %d"
            % (repos.verified_signatures, repos.repo_count)
        )
    return problems


def check_artefacts(report_text: str, written: list) -> list:
    problems = []
    if "Table 1" not in report_text or len(report_text.splitlines()) < 20:
        problems.append("full report did not render")
    if not written:
        problems.append("export wrote no files")
    for path in written:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append("export file missing or empty: %s" % os.path.basename(path))
    return problems


# ---------------------------------------------------------------------------
# Verifier checks: corrupted copies of a repo CAR
# ---------------------------------------------------------------------------

# Not the key of any account: the simulation derives its keys from
# account seeds that never take this form.
WRONG_KEY = make_keypair(b"perfbench: not an account key")


def _flip(block: bytes, at: int) -> bytes:
    return block[:at] + bytes([block[at] ^ 0x01]) + block[at + 1 :]


def _cbor_bytes_head(length: int) -> bytes:
    return bytes([0x40 + length]) if length < 24 else bytes([0x58, length])


def corrupt_cars(car: bytes) -> dict:
    """``name -> (corrupted copy of car, the quarantine kind it must get)``.

    Each copy keeps valid CAR framing and valid CBOR in every block, so
    that only the check named by its kind can reject it: one bit flipped
    in a record block's ``$type`` text, one bit flipped in the first key
    of an MST node (both leave the block's CID as it was, so only the
    block digests catch them), and the commit re-signed with
    :data:`WRONG_KEY` and re-rooted (every digest and the tree are
    sound, so only the signature check catches it)."""
    roots, blocks = read_car(car, verify_digests=False)
    root = roots[0]
    decoded = {cid: cbor_decode(data) for cid, data in blocks.items() if cid != root}
    maps = {cid: value for cid, value in decoded.items() if isinstance(value, dict)}
    record = next(cid for cid, value in maps.items() if "$type" in value)
    node = next(cid for cid, value in maps.items() if set(value) == {"e", "l"} and value["e"])

    def replaced(cid, data, new_root=root):
        return write_car(new_root, [(c, data if c == cid else d) for c, d in blocks.items()])

    at = blocks[record].index(decoded[record]["$type"].encode())
    key = decoded[node]["e"][0]["k"]
    pattern = b"\x61k" + _cbor_bytes_head(len(key)) + key
    key_end = blocks[node].index(pattern) + len(pattern) - 1

    commit = cbor_decode(blocks[root])
    commit["sig"] = WRONG_KEY.sign(cbor_encode({k: v for k, v in commit.items() if k != "sig"}))
    forged = cbor_encode(commit)
    forged_root = cid_for_dag_cbor_bytes(forged)
    resigned = write_car(
        forged_root, [(forged_root, forged)] + [(c, d) for c, d in blocks.items() if c != root]
    )
    return {
        "record byte flipped": (replaced(record, _flip(blocks[record], at)), KIND_BLOCK_DIGEST),
        "MST node byte flipped": (replaced(node, _flip(blocks[node], key_end)), KIND_BLOCK_DIGEST),
        "commit signed with the wrong key": (resigned, KIND_COMMIT_SIGNATURE),
    }


def check_verifier(host: str, did: str, car: bytes, verify_key) -> list:
    """``IntegrityMonitor.verify_repo_car`` accepts ``car`` and rejects
    each of :func:`corrupt_cars`'s copies with the right quarantine kind.
    Each verification gets a monitor of its own and no service directory,
    so nothing of it reaches the workload's ledger or telemetry."""
    problems = []
    if IntegrityMonitor().verify_repo_car(host, did, car, verify_key=verify_key) is None:
        problems.append("%s: verifier rejected the served CAR" % did)
    for name, (corrupted, kind) in corrupt_cars(car).items():
        monitor = IntegrityMonitor()
        snapshot = monitor.verify_repo_car(host, did, corrupted, verify_key=verify_key)
        kinds = [item.kind for item in monitor.report.quarantined]
        if snapshot is not None or kinds != [kind]:
            problems.append(
                "%s: CAR with %s %s (quarantined as %s, expected %s)"
                % (did, name, "accepted" if snapshot is not None else "misfiled", kinds, kind)
            )
    return problems


# ---------------------------------------------------------------------------
# Read-path checks (repo-crawl)
# ---------------------------------------------------------------------------


def check_repo_cids(did: str, record_cids: dict, tally: StreamTally) -> list:
    """The record paths and CIDs of a verified getRepo answer against the
    live paths and record CIDs on the stream."""
    expected = tally.live.get(did, {})
    if record_cids != expected:
        return [
            "%s: %d records served, %d live on the stream, %d differ"
            % (
                did,
                len(record_cids),
                len(expected),
                len(set(record_cids.items()) ^ set(expected.items())),
            )
        ]
    return []


def check_timeline(viewer: str, response: dict, limit: int, tally: StreamTally) -> list:
    """Every item live and by an author the viewer follows, ordered by
    ``(-time_us, uri)``, at most ``limit`` of them."""
    items = response.get("feed", [])
    problems = []
    if len(items) > limit:
        problems.append("%s: timeline has %d items > limit %d" % (viewer, len(items), limit))
    followed = tally.followed_by(viewer)
    keys = []
    for item in items:
        post = item["post"]
        uri = post["uri"]
        time_us = tally.post_time_us.get(uri)
        if time_us is None:
            problems.append("%s: timeline item %s is not a live post" % (viewer, uri))
            continue
        if post["author"] not in followed:
            problems.append("%s: timeline author %s is not followed" % (viewer, post["author"]))
        keys.append((-time_us, uri))
    if keys != sorted(keys):
        problems.append("%s: timeline not ordered by (-time, uri)" % viewer)
    return problems


def check_profile(actor: str, response: dict, tally: StreamTally) -> list:
    problems = []
    follows = len(tally.follows.get(actor, {}))
    if response.get("followsCount") != follows:
        problems.append(
            "%s: followsCount %s, %d live follows" % (actor, response.get("followsCount"), follows)
        )
    name = tally.display_names.get(actor, "")
    if response.get("displayName", "") != name:
        problems.append(
            "%s: displayName %r, stream says %r" % (actor, response.get("displayName"), name)
        )
    return problems


def check_feed(feed_uri: str, response: dict, limit: int, tally: StreamTally) -> list:
    items = response.get("feed", [])
    problems = []
    if len(items) > limit:
        problems.append("%s: %d items > limit %d" % (feed_uri, len(items), limit))
    for item in items:
        if item["post"]["uri"] not in tally.post_time_us:
            problems.append("%s: item %s is not a live post" % (feed_uri, item["post"]["uri"]))
    return problems

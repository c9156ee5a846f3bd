"""The benchmark's one command.

    python3 perfbench/run.py --workload study-small|study-tiny|repo-crawl \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one ``fingerprint`` line per
seed (with, for the studies, the seed's count of stale-handle
quarantines, a known fault of the program that the checks let pass),
then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, in host-speed-normalized seconds (see
hostspeed.py), and a ``raw`` line before the fingerprints gives the raw
times; with ``--trace 1`` the workload runs once untraced and once with
the layer tracer installed, and the metrics are the per-layer ones, the
tracing overhead among them.  The Chrome trace of a traced run goes to
``perfbench/out/``.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study-small", "study-tiny", "repo-crawl")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import everything the workloads touch, so imports and bytecode
    compilation are over before any set-up timer starts."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program sources under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    import repro.simulation.engine  # noqa: F401  (World.run imports it lazily)

    from perfbench import hostspeed, tracing, workloads

    return workloads, tracing, hostspeed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, rss_offset_mb: float) -> dict:
    """Every end-to-end metric, on every workload, so that every run
    reports the same set.  ``commits_per_s`` is simulated commits per
    second of the simulation that made them: the measured studies, or
    repo-crawl's set-up simulations (its measured phase makes none).
    ``repos_per_s`` is repos fetched and fully verified per second of
    the crawl that verified them: repo-crawl's measured passes, or the
    studies' snapshot crawls.  ``peak_rss_mb`` leaves out
    ``rss_offset_mb``, the host-speed sampler's resident buffer."""
    from perfbench.workloads import median

    return {
        "setup_s": _metric(median(result.setup_s), "s"),
        "wall_s": _metric(result.wall_s, "s"),
        "commits_per_s": _metric(result.commits / result.commit_s, "1/s"),
        "repos_per_s": _metric(result.repos_verified / result.verify_s, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - rss_offset_mb, "MB"
        ),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workloads, tracing, hostspeed = _import_program()
    if not args.trace:
        with hostspeed.HostSpeed() as speed:
            result = workloads.run(args.workload, args.seed, args.seconds, speed=speed)
        metrics = end_to_end(result, hostspeed.BUFFER_BYTES / 2**20)
        problems = list(result.problems)
        print(
            "raw setup_s=%.4f wall_s=%.4f host_speed_factor=%.3f"
            % (
                workloads.median(result.raw_setup_s),
                result.raw_wall_s,
                hostspeed.REFERENCE_S / speed.median_s(),
            )
        )
    else:
        # The untraced reference and the traced run make one set-up per
        # round each, so their regions hold the same work; both are
        # host-speed-normalized for the overhead, while the layer times
        # stay raw with the sampler's own time kept out of them.
        with hostspeed.HostSpeed() as speed:
            result = workloads.run(args.workload, args.seed, args.seconds, repeats=1, speed=speed)
        tracer = tracing.LayerTracer()
        with hostspeed.HostSpeed(on_sample=tracer.exclude) as speed:
            traced = workloads.run(
                args.workload, args.seed, args.seconds, tracer=tracer, repeats=1, speed=speed
            )
        problems = result.problems + traced.problems
        if traced.fingerprints != result.fingerprints:
            problems.append("traced run fingerprints differ from the untraced run")
        layers = tracing.layer_metrics(tracer, traced.raw_region_s, traced.commits, traced.cache)
        layers["trace.overhead_pct"] = (100.0 * (traced.region_s / result.region_s - 1.0), "%")
        metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.write_chrome_trace(
            os.path.join(workloads.OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        )
    fingerprints = result.fingerprints
    for seed in sorted(fingerprints):
        # The stale-handle count rides on the fingerprint line: the last
        # line's keys are fixed, and this line is compared across runs.
        stale = result.stale_handles.get(seed)
        print(
            "fingerprint %s seed=%d %s%s"
            % (
                args.workload,
                seed,
                fingerprints[seed],
                "" if stale is None else " stale_handle_quarantines=%d" % stale,
            )
        )
    for problem in problems[:20]:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""A/B helper: compare two checkouts with the benchmark, in alternating pairs.

    python3 perfbench/ab.py --parent ../parent --change . \\
        [--pairs 10] [--seed 1000] [--out runs.json]

``--pairs`` is at least 10.

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed, for ``run_seconds`` and on every workload of the parent's
``BENCHMARK.json``, the length and the workloads its bounds were set
for; the side that runs first alternates from pair to pair.  For every
workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and the parent's quartile spread as a share of its median.  A metric is
reported as a gain only when the change won at least nine tenths of the
pairs and the medians differ by more than the parent's quartile spread;
as a regression when the change's median is worse than the parent's by
more than the bound in ``BENCHMARK.json``.  Fingerprints, ``attempted``
and ``failed`` must agree between the two sides seed for seed; so must
the stale-handle quarantine counts on the fingerprint lines.

With ``--parent`` alone it runs the parent ``--pairs`` times and prints
the spread: the steadiness check a benchmark change is proven with.

Each checkout runs its own ``perfbench/run.py``; a claimed gain must use
identical benchmark code, so the helper warns when the two copies differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench_digest(root: str) -> str:
    hasher = hashlib.sha256()
    base = os.path.join(root, "perfbench")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            hasher.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            "%s %s seed %d exited %d:\n%s"
            % (root, workload, seed, proc.returncode, proc.stderr[-2000:])
        )
    result = json.loads(lines[-1])
    result["fingerprints"] = [line for line in lines[:-1] if line.startswith("fingerprint ")]
    result["raw"] = [line for line in lines[:-1] if line.startswith("raw ")]
    result["seed"] = seed
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    sides = {"parent": os.path.abspath(args.parent)}
    if args.change:
        sides["change"] = os.path.abspath(args.change)
        if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
            print("warning: the two checkouts hold different benchmark code", file=sys.stderr)
    spec = load_spec(sides["parent"])
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics_spec = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict = {}
    problems = []
    for workload in names:
        for index in range(args.pairs):
            # Seeds far apart, so multi-seed workloads never share a seed.
            seed = args.seed + 1000 * index
            order = list(sides) if index % 2 == 0 else list(reversed(list(sides)))
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                runs.setdefault(workload, {}).setdefault(side, []).append(result)
                if not result["correct"]:
                    problems.append("%s %s seed %d: output checks failed" % (side, workload, seed))
                print(
                    "%s %s seed=%d %s"
                    % (
                        workload,
                        side,
                        seed,
                        " ".join(
                            ["%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()]
                            + result["raw"]
                        ),
                    ),
                    file=sys.stderr,
                )
            if len(sides) == 2:
                a, b = (runs[workload][side][-1] for side in ("parent", "change"))
                for key in ("fingerprints", "attempted", "failed"):
                    if a[key] != b[key]:
                        problems.append("%s seed %d: %s differ" % (workload, seed, key))

    for workload in names:
        print("\n== %s (%d runs per side, %d s each)" % (workload, args.pairs, seconds))
        print(
            "%-14s %-8s %30s %30s %7s %8s  %s"
            % (
                "metric",
                "better",
                "parent median [q1, q3]",
                "change median [q1, q3]",
                "won",
                "spread",
                "verdict",
            )
        )
        parent_runs = runs[workload]["parent"]
        for metric in parent_runs[0]["metrics"]:
            better = metrics_spec.get(metric, {}).get("better", "lower")
            bound = metrics_spec.get(metric, {}).get("bound")
            pv = [r["metrics"][metric]["value"] for r in parent_runs]
            pq = quartiles(pv)
            cells = [
                "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                "",
                "",
                "%.1f%%" % (100 * spread(pv)),
                "",
            ]
            if "change" in runs[workload]:
                cv = [r["metrics"][metric]["value"] for r in runs[workload]["change"]]
                cq = quartiles(cv)
                sign = 1 if better == "higher" else -1
                wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0)
                won = wins / len(pv)
                gain = sign * (cq[1] - pq[1]) > (pq[2] - pq[0]) and won >= 0.9
                worse = -sign * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
                verdict = "gain" if gain else "no gain"
                if bound is not None and worse > bound:
                    verdict = "REGRESSION (%.1f%% > bound %.0f%%)" % (100 * worse, 100 * bound)
                cells[1] = "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2])
                cells[2] = "%.0f%%" % (100 * won)
                cells[4] = verdict
            print(
                "%-14s %-8s %30s %30s %7s %8s  %s"
                % (metric, better, cells[0], cells[1], cells[2], cells[3], cells[4])
            )
        shares = {r["failed"] / r["attempted"] for r in parent_runs}
        print("failed share (parent): %s" % sorted(shares))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1, sort_keys=True)
    for problem in problems:
        print("PROBLEM: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

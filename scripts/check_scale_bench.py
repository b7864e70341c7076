#!/usr/bin/env python3
"""Validate an `ovlp.bench_scale.v2` document (stdlib only, no deps).

Checks the weak-scaling trajectory contract emitted by `scale_bench`:
key presence and types, the machine block, strictly increasing rank
counts, and — the point of the streaming work — that the records
resident high-water mark stays a small fraction of the records
streamed at every point (sublinear memory: a materialized replay would
have the two equal).

Usage: check_scale_bench.py <BENCH_scale.json> [--min-ranks N] [--max-spread F]

`--min-ranks N` additionally requires the largest point to reach at
least N ranks (CI's scale-smoke job pins 10000; the committed document
carries 1000000). `--max-spread F` requires the fastest point's
events/s to be at most F times the slowest one's: a replay whose work
per event grows with the rank count shows up as a spread that grows
with the ladder. The spread is computed from each point's
`gauged_wall_s` (its wall time divided by a host-speed gauge sampled
around it), so the host's drift between rungs does not move it.

The document also carries `flow_points`: the same trace replayed on a
flow fabric next to its bus replay. Every point's flow/bus wall ratio
must stay within MAX_FLOW_RATIO, so a flow replay whose cost per event
grows with the flows in flight fails as the ladder climbs.
"""

import json
import sys

POINT_KEYS = {
    "ranks": int,
    "records_total": int,
    "records_peak": int,
    "events": int,
    "transfers": int,
    "queue_peak": int,
    "msg_slots": int,
    "req_slots": int,
    "chan_slots": int,
    "waiters_peak": int,
    "wall_s": float,
    "gauged_wall_s": float,
    "events_per_sec": float,
    "sim_runtime_s": float,
    "efficiency": float,
}

FLOW_POINT_KEYS = {
    "ranks": int,
    "events": int,
    "transfers": int,
    "reshares": int,
    "stale_events": int,
    "flow_wall_s": float,
    "bus_wall_s": float,
    "wall_ratio": float,
    "events_per_sec": float,
}

# A flow replay that walked every active flow on each event ran 20x the
# bus at 8k ranks; lazy settlement keeps it within 2x.
MAX_FLOW_RATIO = 3.0

# A streamed replay keeps O(active) records resident. Allow a generous
# margin over "strictly less" so tiny ladders don't flap, while still
# rejecting anything close to full materialization.
RESIDENT_FRACTION_CAP = 0.5


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, path, msg):
    if not cond:
        fail(path, msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_keys(path, label, p, keys):
    expect(isinstance(p, dict), path, f"{label} is not an object")
    for key, kind in keys.items():
        v = p.get(key)
        if kind is int:
            expect(isinstance(v, int) and v >= 0, path, f"{label}: bad {key} {v!r}")
        else:
            expect(is_num(v) and v >= 0, path, f"{label}: bad {key} {v!r}")


def check_flow(path, doc):
    """Validate `flow_points`; returns the worst flow/bus wall ratio."""
    points = doc.get("flow_points")
    expect(isinstance(points, list) and points, path, "flow_points missing or empty")
    topo = doc.get("flow_topology")
    expect(isinstance(topo, str) and topo, path, "flow_topology missing")
    prev_ranks = 0
    worst = 0.0
    for i, p in enumerate(points):
        check_keys(path, f"flow point {i}", p, FLOW_POINT_KEYS)
        expect(p["ranks"] > prev_ranks, path, f"flow point {i}: ranks not strictly increasing")
        prev_ranks = p["ranks"]
        expect(p["reshares"] > 0, path, f"flow point {i}: the flow replay never reshared")
        expect(p["bus_wall_s"] > 0 and p["flow_wall_s"] > 0, path, f"flow point {i}: zero wall time")
        ratio = p["flow_wall_s"] / p["bus_wall_s"]
        expect(
            abs(p["wall_ratio"] - ratio) <= 1e-9 * ratio,
            path,
            f"flow point {i}: wall_ratio {p['wall_ratio']!r} disagrees with the walls ({ratio})",
        )
        expect(
            ratio <= MAX_FLOW_RATIO,
            path,
            f"flow point {i} ({p['ranks']} ranks on {topo}): flow replay took "
            f"{ratio:.2f}x the bus replay, want <= {MAX_FLOW_RATIO}x",
        )
        worst = max(worst, ratio)
    return worst


def check(path, min_ranks, max_spread):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    expect(doc.get("schema") == "ovlp.bench_scale.v2", path, f"bad schema id {doc.get('schema')!r}")
    expect(isinstance(doc.get("quick"), bool), path, "quick not a bool")
    expect(isinstance(doc.get("app"), str) and doc["app"], path, "app missing")
    machine = doc.get("machine")
    expect(isinstance(machine, dict), path, "machine block missing")
    threads = machine.get("hardware_threads")
    expect(isinstance(threads, int) and threads >= 1, path, f"bad hardware_threads {threads!r}")
    expect(isinstance(machine.get("commit"), str) and machine["commit"], path, "commit missing")
    points = doc.get("points")
    expect(isinstance(points, list) and points, path, "points missing or empty")

    prev_ranks = 0
    for i, p in enumerate(points):
        check_keys(path, f"point {i}", p, POINT_KEYS)
        rss = p.get("rss_peak_bytes")
        expect(rss is None or (isinstance(rss, int) and rss > 0), path, f"point {i}: bad rss_peak_bytes {rss!r}")
        expect(p["ranks"] > prev_ranks, path, f"point {i}: ranks not strictly increasing")
        prev_ranks = p["ranks"]
        expect(p["gauged_wall_s"] > 0, path, f"point {i}: zero gauged_wall_s")
        expect(
            p["records_peak"] <= RESIDENT_FRACTION_CAP * p["records_total"],
            path,
            f"point {i} ({p['ranks']} ranks): {p['records_peak']} records resident "
            f"of {p['records_total']} streamed — memory is not sublinear",
        )

    top = points[-1]["ranks"]
    if min_ranks is not None:
        expect(
            top >= min_ranks,
            path,
            f"largest point is {top} ranks, want >= {min_ranks}",
        )
    eps = [p["events"] / p["gauged_wall_s"] for p in points]
    spread = max(eps) / max(min(eps), 1e-9)
    recorded = doc.get("events_per_sec_spread")
    expect(
        is_num(recorded) and abs(recorded - spread) <= 1e-9 * spread,
        path,
        f"events_per_sec_spread {recorded!r} disagrees with the points ({spread})",
    )
    if max_spread is not None:
        expect(
            spread <= max_spread,
            path,
            f"gauged events/s spread {spread:.2f}x across the ladder, want <= {max_spread}x",
        )
    worst = check_flow(path, doc)
    frac = points[-1]["records_peak"] / max(points[-1]["records_total"], 1)
    print(
        f"{path}: ok ({len(points)} points, top {top} ranks, "
        f"resident peak {100.0 * frac:.2f}% of streamed records, "
        f"gauged events/s spread {spread:.2f}x, {len(doc['flow_points'])} flow points, "
        f"worst flow/bus {worst:.2f}x)"
    )


def take_flag(args, flag, kind):
    """Remove `flag VALUE` from `args` and return VALUE as `kind`."""
    if flag not in args:
        return None
    i = args.index(flag)
    try:
        value = kind(args[i + 1])
    except (IndexError, ValueError):
        print(f"{flag} needs a {kind.__name__}", file=sys.stderr)
        sys.exit(2)
    del args[i : i + 2]
    return value


if __name__ == "__main__":
    args = sys.argv[1:]
    min_ranks = take_flag(args, "--min-ranks", int)
    max_spread = take_flag(args, "--max-spread", float)
    if not args:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for p in args:
        check(p, min_ranks, max_spread)

#!/usr/bin/env python3
"""Validate the `ovlp serve` wire documents (stdlib only, no deps).

Dispatches on the `schema` field and checks the structural contracts
documented in docs/serving.md:

* `ovlp.sweep-job.v1`      — submission request (axes, types, ranges)
* `ovlp.sweep-accepted.v1` — submission response
* `ovlp.sweep-point.v1`    — one NDJSON stream line per grid point
* `ovlp.sweep-done.v1`     — stream terminator (counts must add up)
* `ovlp.sweep-summary.v1`  — job summary with store counters
* `ovlp.store-stats.v1`    — daemon-wide store counters
* `ovlp.health.v1`         — live / ready / draining probe document
* `ovlp.journal.v1`        — crash-recovery job journal (header line
                             followed by `{"point":N}` / `{"end":...}`)

A file may hold one JSON document or NDJSON (one document per line);
streams are additionally checked for canonical order: indexes 0..n-1
followed by exactly one `done` line whose counts match. Journal files
are validated whole: one header, point indexes in range and unique,
at most one end marker (and nothing after it).

Usage: check_sweep_job_schema.py <doc.json|stream.ndjson> [more ...]
"""

import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, path, msg):
    if not cond:
        fail(path, msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def no_unknown_keys(path, doc, known):
    for key in doc:
        expect(key in known, path, f"unknown field {key!r}")


def check_job(path, doc):
    no_unknown_keys(
        path,
        doc,
        {
            "schema", "app", "ranks", "jobs", "chunks", "bw", "buses", "topology", "faults",
            "engine", "critpath",
        },
    )
    expect(isinstance(doc.get("app"), str) and doc["app"], path, "app missing or empty")
    expect(is_count(doc.get("ranks")) and doc["ranks"] >= 1, path, "ranks must be >= 1")
    if "jobs" in doc:
        expect(is_count(doc["jobs"]) and doc["jobs"] >= 1, path, "jobs must be >= 1")
    for axis, pred, what in (
        ("chunks", lambda v: is_count(v) and 1 <= v < 256, "a chunk count in 1..256"),
        ("bw", lambda v: is_num(v) and v > 0, "a positive bandwidth"),
        ("buses", is_count, "a non-negative bus count"),
        ("topology", lambda v: isinstance(v, str) and v, "a topology spec string"),
        ("faults", lambda v: isinstance(v, str) and v, "a fault schedule string"),
    ):
        if axis in doc:
            expect(isinstance(doc[axis], list), path, f"{axis} is not an array")
            for v in doc[axis]:
                expect(pred(v), path, f"{axis} entry {v!r} is not {what}")
    if "engine" in doc:
        # deprecated and ignored, but still accepted (older journals
        # carry it): the values the field took when it selected a
        # replay driver
        e = doc["engine"]
        ok = isinstance(e, str) and (
            e in ("seq", "sequential", "par", "parallel")
            or any(
                e.startswith(p) and e[len(p):].isdigit() and int(e[len(p):]) >= 1
                for p in ("par:", "parallel:")
            )
        )
        expect(ok, path, f"engine {e!r} is not sequential|parallel[:N]")
    if "critpath" in doc:
        expect(isinstance(doc["critpath"], bool), path, "critpath must be a boolean")


def check_accepted(path, doc):
    no_unknown_keys(path, doc, {"schema", "job", "points", "stream", "report"})
    expect(isinstance(doc.get("job"), str) and doc["job"], path, "job id missing")
    expect(is_count(doc.get("points")), path, "points must be a count")
    for key in ("stream", "report"):
        expect(
            isinstance(doc.get(key), str) and doc[key].startswith("/v1/sweeps/"),
            path,
            f"{key} is not a /v1/sweeps/ path",
        )


FAIL_KINDS = {"platform", "transform", "sim", "panic", "timeout", "quarantined", "cancelled"}


def check_point(path, doc):
    if "error" in doc:
        no_unknown_keys(path, doc, {"schema", "index", "app", "platform", "policy", "kind", "error"})
        expect(isinstance(doc["error"], str) and doc["error"], path, "error must be a message")
        expect(doc.get("kind") in FAIL_KINDS, path, f"kind {doc.get('kind')!r} is not a failure kind")
    else:
        no_unknown_keys(
            path,
            doc,
            {
                "schema", "index", "app", "platform", "policy", "key",
                "t_original", "t_overlapped", "t_ideal", "bits", "hash", "critpath",
            },
        )
        for key in ("t_original", "t_overlapped", "t_ideal"):
            expect(is_num(doc.get(key)) and doc[key] >= 0, path, f"bad {key}")
        for key, width in (("key", 16), ("hash", 16)):
            v = doc.get(key)
            expect(
                isinstance(v, str) and len(v) == width and all(c in "0123456789abcdef" for c in v),
                path,
                f"{key} is not {width} hex digits",
            )
        bits = doc.get("bits")
        expect(
            isinstance(bits, str)
            and len(bits.split(":")) == 3
            and all(len(p) == 16 for p in bits.split(":")),
            path,
            "bits is not three 16-digit hex words",
        )
    expect(is_count(doc.get("index")), path, "index must be a count")
    expect(isinstance(doc.get("app"), str) or "error" in doc, path, "app missing")
    for key in ("platform", "policy"):
        expect(is_count(doc.get(key)), path, f"{key} must be a count")


def check_done(path, doc):
    no_unknown_keys(path, doc, {"schema", "points", "ok", "failed"})
    for key in ("points", "ok", "failed"):
        expect(is_count(doc.get(key)), path, f"{key} must be a count")
    expect(doc["ok"] + doc["failed"] == doc["points"], path, "ok + failed != points")


def check_summary(path, doc):
    no_unknown_keys(
        path,
        doc,
        {
            "schema", "job", "points", "completed", "ok", "failed", "done", "cancelled",
            "store_hits", "store_misses", "coalesced", "elapsed_ms",
        },
    )
    expect(isinstance(doc.get("job"), str) and doc["job"], path, "job id missing")
    for key in ("points", "completed", "ok", "failed", "store_hits", "store_misses", "coalesced"):
        expect(is_count(doc.get(key)), path, f"{key} must be a count")
    expect(isinstance(doc.get("done"), bool), path, "done must be a bool")
    expect(isinstance(doc.get("cancelled"), bool), path, "cancelled must be a bool")
    expect(doc["completed"] <= doc["points"], path, "completed > points")
    expect(doc["ok"] + doc["failed"] == doc["completed"], path, "ok + failed != completed")
    if doc["done"]:
        expect(doc["completed"] == doc["points"], path, "done but not all points completed")
        expect(is_num(doc.get("elapsed_ms")) and doc["elapsed_ms"] >= 0, path, "bad elapsed_ms")


def check_store_stats(path, doc):
    no_unknown_keys(
        path, doc, {"schema", "memory_entries", "hits", "misses", "coalesced", "disk"}
    )
    for key in ("memory_entries", "hits", "misses", "coalesced"):
        expect(is_count(doc.get(key)), path, f"{key} must be a count")
    disk = doc.get("disk")
    if disk is not None:
        expect(isinstance(disk, dict), path, "disk must be an object or null")
        no_unknown_keys(
            path,
            disk,
            {"entries", "hits", "misses", "corrupt", "orphans_removed", "bytes_read", "bytes_written"},
        )
        for key in ("entries", "hits", "misses", "corrupt", "orphans_removed",
                    "bytes_read", "bytes_written"):
            expect(is_count(disk.get(key)), path, f"disk.{key} must be a count")


def check_health(path, doc):
    no_unknown_keys(path, doc, {"schema", "live", "ready", "draining", "jobs", "unfinished"})
    for key in ("live", "ready", "draining"):
        expect(isinstance(doc.get(key), bool), path, f"{key} must be a bool")
    for key in ("jobs", "unfinished"):
        expect(is_count(doc.get(key)), path, f"{key} must be a count")
    expect(doc["live"], path, "a served health document is always live")
    expect(doc["ready"] != doc["draining"], path, "ready must be the negation of draining")


def check_journal_header(path, doc):
    no_unknown_keys(path, doc, {"schema", "job", "points", "spec"})
    expect(isinstance(doc.get("job"), str) and doc["job"], path, "job id missing")
    expect(is_count(doc.get("points")), path, "points must be a count")
    spec = doc.get("spec")
    expect(isinstance(spec, dict), path, "spec must be the submitted job object")
    expect(spec.get("schema") == "ovlp.sweep-job.v1", path, "spec is not an ovlp.sweep-job.v1")
    check_job(path, spec)


def check_journal(path, docs):
    """A whole journal file: header, then point / end body lines."""
    check_journal_header(path, docs[0])
    points = docs[0]["points"]
    seen = set()
    ended = False
    for i, line in enumerate(docs[1:], start=2):
        expect(not ended, path, f"line {i}: record after the end marker")
        if "point" in line:
            no_unknown_keys(path, line, {"point"})
            p = line["point"]
            expect(is_count(p) and p < points, path, f"line {i}: point {p!r} out of range")
            expect(p not in seen, path, f"line {i}: duplicate point {p}")
            seen.add(p)
        elif "end" in line:
            no_unknown_keys(path, line, {"end"})
            expect(line["end"] in ("complete", "cancelled"), path, f"line {i}: bad end marker")
            ended = True
        else:
            fail(path, f"line {i}: neither a point nor an end marker")
    kind = "complete" if ended else "incomplete"
    print(f"{path}: ok (journal, {len(seen)}/{points} points, {kind})")


CHECKS = {
    "ovlp.sweep-job.v1": check_job,
    "ovlp.sweep-accepted.v1": check_accepted,
    "ovlp.sweep-point.v1": check_point,
    "ovlp.sweep-done.v1": check_done,
    "ovlp.sweep-summary.v1": check_summary,
    "ovlp.store-stats.v1": check_store_stats,
    "ovlp.health.v1": check_health,
}


def check_doc(path, doc):
    expect(isinstance(doc, dict), path, "document is not a JSON object")
    schema = doc.get("schema")
    expect(schema in CHECKS, path, f"unknown schema id {schema!r}")
    CHECKS[schema](path, doc)
    return schema


def check(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    expect(text.strip(), path, "empty file")
    # A file is either one JSON document (possibly pretty-printed) or
    # NDJSON with one document per line.
    try:
        docs = [json.loads(text)]
    except json.JSONDecodeError:
        docs = []
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(path, f"line {i + 1}: bad JSON: {e}")

    # Journal body lines carry no schema field; the header routes the
    # whole file.
    if docs and isinstance(docs[0], dict) and docs[0].get("schema") == "ovlp.journal.v1":
        check_journal(path, docs)
        return

    schemas = [check_doc(path, d) for d in docs]

    # NDJSON streams must be in canonical order and internally
    # consistent: points 0..n-1, then one matching `done` line.
    if "ovlp.sweep-point.v1" in schemas or schemas.count("ovlp.sweep-done.v1") > 0:
        expect(
            schemas[-1] == "ovlp.sweep-done.v1"
            and all(s == "ovlp.sweep-point.v1" for s in schemas[:-1]),
            path,
            "stream is not points followed by one done line",
        )
        points, done = docs[:-1], docs[-1]
        for i, p in enumerate(points):
            expect(p["index"] == i, path, f"stream out of order at line {i + 1}")
        expect(done["points"] == len(points), path, "done.points != streamed points")
        failed = sum(1 for p in points if "error" in p)
        expect(done["failed"] == failed, path, "done.failed != streamed errors")

    kinds = ", ".join(sorted(set(schemas)))
    print(f"{path}: ok ({len(docs)} document(s): {kinds})")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for p in sys.argv[1:]:
        check(p)

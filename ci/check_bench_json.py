#!/usr/bin/env python3
"""Validate the shape of a BENCH_*.json report.

Usage: check_bench_json.py <schema>

where <schema> is one of ``throughput``, ``monitor``, ``obs``,
``recovery`` or ``session``. Each
schema names the file the matching bench binary writes, the per-run
sections it must contain, and the report-level invariants CI holds it
to (see docs/PERFORMANCE.md and docs/OBSERVABILITY.md). Exits non-zero
with a message on the first violation.
"""

import json
import sys

RUN_KEYS = ("msgs_per_sec", "p50_route_ns", "p99_route_ns", "delivered")

SCHEMAS = {
    "throughput": {
        "file": "BENCH_throughput.json",
        "bench": "throughput_report",
        "sections": ("pipeline",),
        "extra_run_keys": ("fastpath", "slowpath", "cache_hits", "cache_stale"),
    },
    "monitor": {
        "file": "BENCH_monitor.json",
        "bench": "monitor_report",
        "sections": ("monitors_off", "monitors_on", "monitored_topic"),
        "extra_run_keys": (),
    },
    "obs": {
        "file": "BENCH_obs.json",
        "bench": "obs_report",
        "sections": ("telemetry_off", "telemetry_on"),
        "extra_run_keys": (),
    },
    # The recovery report has its own shape (no per-run route sections):
    # WAL append rate, a recovery-time-vs-log-length curve, the
    # checkpointed restart, and the durable-vs-volatile fast path.
    "recovery": {
        "file": "BENCH_recovery.json",
        "bench": "recovery_report",
        "sections": (),
        "extra_run_keys": (),
    },
    "session": {
        "file": "BENCH_session.json",
        "bench": "session_report",
        "sections": (
            "rsa_signed",
            "rsa_token",
            "session",
            "fastpath_no_keys",
            "fastpath_keys",
        ),
        "extra_run_keys": (),
    },
}


def check(schema_name: str) -> str:
    schema = SCHEMAS[schema_name]
    with open(schema["file"]) as f:
        report = json.load(f)

    assert report["bench"] == schema["bench"], f"wrong bench: {report['bench']}"
    assert report["mode"] in ("quick", "full"), f"bad mode: {report['mode']}"
    assert report["threads"] >= 1
    for section in schema["sections"]:
        run = report[section]
        for key in RUN_KEYS + schema["extra_run_keys"]:
            assert key in run, f"{section}.{key} missing"
        assert run["msgs_per_sec"] > 0, f"{section} measured nothing"

    if schema_name == "throughput":
        run = report["pipeline"]
        routed = report["saturation_msgs"] + report["timed_msgs"]
        assert run["delivered"] == routed, f"delivered {run['delivered']} of {routed}"
        assert run["fastpath"] >= routed, "a data frame needed an owned decode"
        assert run["cache_hits"] > 0, "route cache never hit"
        return f"{run['msgs_per_sec']} msgs/sec, exact delivery"
    if schema_name == "monitor":
        assert report["monitor_events"] > 0
        assert report["violations"] == 0
        assert report["prefilter_overhead_pct"] < 10
        assert "per_event_check_ns" in report
        assert "sampled_check_ns_mean" in report
        return f"overhead {report['prefilter_overhead_pct']}%"
    if schema_name == "obs":
        assert report["frames_accepted"] > 0, "telemetry plane never ran"
        assert report["frames_rejected"] == 0, "genuine frames were rejected"
        assert report["overhead_pct"] < 2, f"telemetry overhead {report['overhead_pct']}%"
        assert report["prometheus_bytes"] > 0
        assert report["json_bytes"] > 0
        return f"overhead {report['overhead_pct']}%"
    if schema_name == "recovery":
        append = report["wal_append"]
        assert append["records"] > 0 and append["appends_per_sec"] > 0
        assert append["mb_per_sec"] > 0
        curve = report["recovery_curve"]
        assert curve, "recovery curve is empty"
        for point in curve:
            assert point["replayed"] == point["log_records"], "replay lost records"
            assert point["recovery_ms"] >= 0
            assert point["replay_per_sec"] > 0
        ckpt = report["checkpointed"]
        assert ckpt["replayed"] == 0, "checkpoint did not compact the log"
        assert ckpt["snapshot_seq"] == ckpt["log_records"]
        steady = report["steady_state"]
        assert steady["volatile_msgs_per_sec"] > 0
        assert steady["durable_msgs_per_sec"] > 0
        assert steady["overhead_pct"] < 5, f"WAL overhead {steady['overhead_pct']}%"
        assert steady["wal_records"] > 0, "durable broker journalled nothing"
        return f"overhead {steady['overhead_pct']}%"
    if schema_name == "session":
        speedup = report["speedup_vs_rsa_signed"]
        assert speedup >= 10, f"session only {speedup}x over per-trace RSA (bar: 10x)"
        assert report["speedup_vs_rsa_token"] > 1
        assert report["session_verified"] > 0, "keyring never authenticated a frame"
        assert report["session_fallbacks"] == 0, "session frames fell back to RSA"
        assert report["monitor_events"] > 0, "monitors never saw the traffic"
        assert report["violations"] == 0, "clean traffic raised violations"
        pct = report["session_fastpath_overhead_pct"]
        assert pct < 5, f"session gate costs {pct}% of fast-path throughput"
        return f"speedup {speedup}x, fastpath overhead {pct}%"
    raise AssertionError(f"unhandled schema {schema_name}")


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in SCHEMAS:
        names = ", ".join(sorted(SCHEMAS))
        print(f"usage: {sys.argv[0]} <{names}>", file=sys.stderr)
        return 2
    name = sys.argv[1]
    try:
        detail = check(name)
    except (AssertionError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"{SCHEMAS[name]['file']} FAILED: {e!r}", file=sys.stderr)
        return 1
    print(f"{SCHEMAS[name]['file']} shape OK ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

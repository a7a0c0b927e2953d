#!/usr/bin/env python3
"""Validate the shape of a BENCH_*.json report.

Usage: check_bench_json.py <schema>

where <schema> is one of ``throughput``, ``monitor``, ``obs``,
``recovery``, ``session``, ``e2e`` or ``paper``. Each loopback schema
names the file the matching bench binary writes, its per-configuration
sections, its overhead budget and the report-level invariants CI holds
it to (see docs/PERFORMANCE.md and docs/OBSERVABILITY.md). ``e2e``
checks BENCH_e2e.json, the parent/change e2ebench pairs
ci/e2e_pairs.py writes (see ``check_e2e``). ``paper`` checks
BENCH_paper.json, the paper's tables as the §6 binaries write them
(see ``check_paper``). Exits non-zero with a message on the first
violation.

Every section comes from the shared loopback harness
(crates/bench/src/loopback.rs): at least 5 interleaved trials, the
median msgs/sec with its min, max and interquartile distance, and each
trial's sent and delivered counts. Every overhead gate uses one rule,
re-applied here from the JSON: it fails only when the median overhead
exceeds its budget and the baseline's interquartile distance (as % of
its median); when that distance is wider than the budget, a gate that
does not fail is recorded as "unresolved".
"""

import json
import sys

MIN_TRIALS = 5

SECTION_KEYS = (
    "trials",
    "msgs_per_sec",
    "min_msgs_per_sec",
    "max_msgs_per_sec",
    "iqr_msgs_per_sec",
    "trial_msgs_per_sec",
    "p50_route_ns",
    "p99_route_ns",
    "sent",
    "delivered",
)

SCHEMAS = {
    "throughput": {
        "file": "BENCH_throughput.json",
        "bench": "throughput_report",
        "sections": ("pipeline",),
        "budget_pct": None,
    },
    "monitor": {
        "file": "BENCH_monitor.json",
        "bench": "monitor_report",
        "sections": ("monitors_off", "monitors_on", "monitored_topic"),
        "budget_pct": 10,
    },
    "obs": {
        "file": "BENCH_obs.json",
        "bench": "obs_report",
        "sections": ("telemetry_off", "telemetry_on"),
        "budget_pct": 2,
    },
    "recovery": {
        "file": "BENCH_recovery.json",
        "bench": "recovery_report",
        "sections": ("volatile", "durable"),
        "budget_pct": 5,
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
        "budget_pct": 5,
    },
    "e2e": {
        "file": "BENCH_e2e.json",
    },
    "paper": {
        "file": "BENCH_paper.json",
    },
}


def quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolation quantile, as the harness computes it."""
    h = (len(sorted_values) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (h - lo)


def check_runs(report: dict, sections: tuple) -> None:
    """The shared runs block: trial count, summary vs trials, exact delivery."""
    assert report["mode"] in ("quick", "full"), f"bad mode: {report['mode']}"
    assert report["threads"] >= 1
    assert report["trials"] >= MIN_TRIALS, f"only {report['trials']} trials"
    for name in sections:
        run = report[name]
        for key in SECTION_KEYS:
            assert key in run, f"{name}.{key} missing"
        trials = run["trials"]
        assert trials >= MIN_TRIALS, f"{name}: only {trials} trials"
        for key in ("trial_msgs_per_sec", "sent", "delivered"):
            assert len(run[key]) == trials, f"{name}.{key} has {len(run[key])} of {trials}"
        lo, median, hi = run["min_msgs_per_sec"], run["msgs_per_sec"], run["max_msgs_per_sec"]
        assert 0 < lo <= median <= hi, f"{name}: not min <= median <= max ({lo}, {median}, {hi})"
        # The summary must follow from the trials (every value is
        # rounded to 1 msg/sec, so allow for that).
        rates = sorted(run["trial_msgs_per_sec"])
        derived = {
            "min_msgs_per_sec": rates[0],
            "msgs_per_sec": quantile(rates, 0.5),
            "max_msgs_per_sec": rates[-1],
            "iqr_msgs_per_sec": quantile(rates, 0.75) - quantile(rates, 0.25),
        }
        for key, want in derived.items():
            assert abs(run[key] - want) <= 2, f"{name}.{key} is {run[key]}, trials give {want}"
        for i, (sent, got) in enumerate(zip(run["sent"], run["delivered"])):
            assert sent > 0 and got == sent, f"{name} trial {i}: delivered {got} of {sent}"


def verdict(overhead: float, noise: float, budget: float) -> str:
    if overhead > budget and overhead > noise:
        return "fail"
    return "unresolved" if noise > budget else "pass"


def check_gate(report: dict, sections: tuple, budget: float) -> str:
    """Re-derives the overhead gate from the sections' medians and IQR."""
    gate = report["gate"]
    assert gate["baseline"] in sections and gate["variant"] in sections
    assert gate["budget_pct"] == budget, f"budget {gate['budget_pct']}%, expected {budget}%"
    base, var = report[gate["baseline"]], report[gate["variant"]]
    overhead = (base["msgs_per_sec"] - var["msgs_per_sec"]) / base["msgs_per_sec"] * 100
    noise = base["iqr_msgs_per_sec"] / base["msgs_per_sec"] * 100
    assert abs(overhead - gate["overhead_pct"]) < 0.01, f"overhead {gate['overhead_pct']}% != {overhead:.3f}%"
    assert abs(noise - gate["noise_pct"]) < 0.01, f"noise {gate['noise_pct']}% != {noise:.3f}%"
    expected = verdict(gate["overhead_pct"], gate["noise_pct"], budget)
    assert gate["verdict"] == expected, f"verdict {gate['verdict']}, rule gives {expected}"
    assert expected != "fail", (
        f"{gate['variant']} costs {overhead:.2f}% of {gate['baseline']} "
        f"(budget {budget}%, baseline noise {noise:.2f}%)"
    )
    return f"overhead {gate['overhead_pct']}% ({expected}, noise {gate['noise_pct']}%)"


# A claimed gain needs at least CLAIM_PAIRS pairs and must win nine
# tenths of them (ties count for neither side).
CLAIM_PAIRS = 10


def better_by(metric: dict, parent: float, change: float) -> float:
    """How much better `change` is than `parent` (negative: worse)."""
    return parent - change if metric["better"] == "lower" else change - parent


def summarize(pairs: list, metric: dict) -> dict:
    """One metric over a workload's pairs: each side's median and
    quartiles, the pairs the change won, and the verdicts.

    ``claim`` holds when there are at least CLAIM_PAIRS pairs, the
    change wins nine tenths of them, and the medians differ, in the
    better direction, by more than the parent's IQR. ``regression`` is
    the loopback gate rule with the metric's BENCHMARK.json bound as the
    budget: "fail" when the change's median is worse by more than the
    bound and by more than the parent's IQR (both relative to the
    parent's median), "unresolved" when that IQR is wider than the
    bound, except "pass" when every change run reads better than every
    parent run."""
    name = metric["name"]
    sides = {}
    for side in ("parent", "change"):
        values = sorted(p[side]["metrics"][name] for p in pairs)
        q1, med, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
        sides[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
    parent, change = sides["parent"], sides["change"]
    runs = {side: [p[side]["metrics"][name] for p in pairs] for side in sides}
    wins = sum(better_by(metric, p, c) > 0 for p, c in zip(runs["parent"], runs["change"]))
    gain = better_by(metric, parent["median"], change["median"])
    claim = len(pairs) >= CLAIM_PAIRS and wins * 10 >= len(pairs) * 9 and gain > parent["iqr"]
    scale = abs(parent["median"]) or 1.0
    worse_pct = -gain / scale * 100
    noise_pct = parent["iqr"] / scale * 100
    separated = all(better_by(metric, p, c) > 0 for p in runs["parent"] for c in runs["change"])
    return {
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "pairs": len(pairs),
        "claim": claim,
        "worse_pct": worse_pct,
        "noise_pct": noise_pct,
        "regression": "pass" if separated else verdict(worse_pct, noise_pct, metric["bound"] * 100),
    }


def check_e2e(report: dict, benchmark: dict) -> str:
    """BENCH_e2e.json: every run correct, the summaries re-derived from
    the runs, every claim holding and no metric regressing."""
    metrics = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert report["bench"] == "e2ebench", f"wrong bench: {report['bench']}"
    assert set(report["workloads"]) == set(workloads), f"workloads {sorted(report['workloads'])}"
    done = []
    for workload, body in report["workloads"].items():
        pairs = body["pairs"]
        assert pairs, f"{workload}: no pairs"
        for i, pair in enumerate(pairs):
            want_first = "parent" if i % 2 == 0 else "change"
            assert pair["first"] == want_first, f"{workload} pair {i}: {pair['first']} ran first"
            for side in ("parent", "change"):
                run = pair[side]
                assert run["correct"] is True, f"{workload} pair {i}: incorrect {side} run"
                for m in metrics:
                    assert m["name"] in run["metrics"], f"{workload} pair {i} {side}: no {m['name']}"
        for m in metrics:
            want = summarize(pairs, m)
            got = body["summary"][m["name"]]
            for key in ("change_wins", "pairs", "claim", "regression"):
                assert got[key] == want[key], f"{workload} {m['name']}.{key}: {got[key]}, runs give {want[key]}"
            for side in ("parent", "change"):
                for key in ("median", "q1", "q3", "iqr"):
                    assert abs(got[side][key] - want[side][key]) <= 1e-9 * max(1.0, abs(want[side][key])), (
                        f"{workload} {m['name']}.{side}.{key}: {got[side][key]}, runs give {want[side][key]}"
                    )
            assert want["regression"] != "fail", (
                f"{workload} {m['name']} is {want['worse_pct']:.2f}% worse "
                f"(bound {m['bound'] * 100}%, parent noise {want['noise_pct']:.2f}%)"
            )
        done.append(f"{workload} {len(pairs)} pairs")
    for claim in report["claims"]:
        summary = report["workloads"][claim["workload"]]["summary"][claim["metric"]]
        assert summary["claim"], (
            f"claimed {claim['workload']} {claim['metric']}: change won "
            f"{summary['change_wins']} of {summary['pairs']} pairs, medians "
            f"{summary['parent']['median']} -> {summary['change']['median']}, "
            f"parent IQR {summary['parent']['iqr']}"
        )
        done.append(f"claim {claim['workload']} {claim['metric']} holds")
    return ", ".join(done)


# Table 3's crypto rows, as crypto_table names them, and the paper's
# cost ordering over them: token generation (a fresh RSA key pair and a
# signature) > RSA signing > RSA verification > AES-192 encrypt and
# decrypt. Each tier's smallest median must exceed the next tier's
# largest.
CRYPTO_ROWS = (
    "token_generation",
    "token_verify",
    "aes_encrypt",
    "aes_decrypt",
    "sign",
    "verify",
    "sign_encrypted",
    "verify_encrypted",
    "hmac_sha256",
)
CRYPTO_ORDER = (
    ("token_generation",),
    ("sign", "sign_encrypted"),
    ("verify", "verify_encrypted"),
    ("aes_encrypt", "aes_decrypt"),
)


def check_paper(report: dict) -> str:
    """BENCH_paper.json's crypto section: every row's trial count, its
    median, quartiles and range re-derived from the trial means, and
    Table 3's cost ordering on the medians."""
    crypto = report["crypto"]
    assert crypto["bench"] == "crypto_table", f"wrong bench: {crypto['bench']}"
    assert crypto["unit"] == "ms", f"unit {crypto['unit']}"
    trials = crypto["trials"]
    assert trials >= MIN_TRIALS, f"only {trials} trials"
    rows = crypto["rows"]
    assert set(rows) == set(CRYPTO_ROWS), f"rows {sorted(rows)}"
    for name, row in rows.items():
        assert row["samples"] >= 1, f"{name}: {row['samples']} samples per trial"
        means = sorted(row["trial_means"])
        assert len(means) == trials, f"{name}: {len(means)} trial means of {trials}"
        assert means[0] > 0, f"{name}: a trial mean is not positive"
        q1, median, q3 = (quantile(means, q) for q in (0.25, 0.5, 0.75))
        derived = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": means[0], "max": means[-1]}
        for key, want in derived.items():
            # Every figure is written to 1e-9 ms.
            assert abs(row[key] - want) <= 1e-8, f"{name}.{key} is {row[key]}, trials give {want}"
    for larger, smaller in zip(CRYPTO_ORDER, CRYPTO_ORDER[1:]):
        low = min(larger, key=lambda k: rows[k]["median"])
        high = max(smaller, key=lambda k: rows[k]["median"])
        assert rows[low]["median"] > rows[high]["median"], (
            f"Table 3 shape: {low} median {rows[low]['median']} ms is not above "
            f"{high} median {rows[high]['median']} ms"
        )
    shape = " > ".join(f"{max(rows[k]['median'] for k in tier):.4g}" for tier in CRYPTO_ORDER)
    return f"crypto: {len(rows)} rows x {trials} trials, Table 3 shape holds ({shape} ms)"


def check(schema_name: str) -> str:
    schema = SCHEMAS[schema_name]
    with open(schema["file"]) as f:
        report = json.load(f)
    if schema_name == "e2e":
        with open("BENCHMARK.json") as f:
            return check_e2e(report, json.load(f))
    if schema_name == "paper":
        return check_paper(report)

    assert report["bench"] == schema["bench"], f"wrong bench: {report['bench']}"
    check_runs(report, schema["sections"])
    gate = ""
    if schema["budget_pct"] is not None:
        gate = check_gate(report, schema["sections"], schema["budget_pct"])

    if schema_name == "throughput":
        run = report["pipeline"]
        routed = report["saturation_msgs"] + report["timed_msgs"]
        assert run["sent"] == [routed] * run["trials"], f"trials sent {run['sent']}, expected {routed}"
        assert report["fastpath"] >= sum(run["sent"]), "a data frame needed an owned decode"
        assert report["cache_hits"] > 0, "route cache never hit"
        return f"{run['msgs_per_sec']} msgs/sec median, exact delivery"
    if schema_name == "monitor":
        assert report["monitor_events"] >= sum(report["monitored_topic"]["sent"])
        assert report["plain_topic_monitor_events"] == 0, "unmonitored frames reached the tap"
        assert report["violations"] == 0
        assert "per_event_check_ns" in report
        assert "sampled_check_ns_mean" in report
        return gate
    if schema_name == "obs":
        accepted = report["frames_accepted"]
        assert len(accepted) == report["telemetry_on"]["trials"], "frames_accepted per trial"
        assert all(n > 0 for n in accepted), f"a trial aggregated no frames: {accepted}"
        assert report["frames_rejected"] == 0, "genuine frames were rejected"
        assert report["frames_duplicate"] == 0, "a trial's frames were dropped as duplicates"
        assert report["prometheus_bytes"] > 0
        assert report["json_bytes"] > 0
        return gate
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
        assert report["wal_appends_while_publishing"] == 0, "publishes touched the WAL"
        assert report["wal_records"] > 0, "durable broker journalled nothing"
        return gate
    if schema_name == "session":
        speedup = report["speedup_vs_rsa_signed"]
        assert speedup >= 10, f"session only {speedup}x over per-trace RSA (bar: 10x)"
        assert report["speedup_vs_rsa_token"] > 1
        assert report["session_verified"] >= sum(report["session"]["sent"]), "keyring skipped frames"
        assert report["session_fallbacks"] == 0, "session frames fell back to RSA"
        assert report["monitor_events"] > 0, "monitors never saw the traffic"
        assert report["violations"] == 0, "clean traffic raised violations"
        checks = report["keyring_checks_on_plain"]
        for key in ("verified", "rejected", "unknown_key", "expired"):
            assert checks[key] == 0, f"plain frames moved crypto.session.{key}"
        return f"speedup {speedup}x, fastpath {gate}"
    raise AssertionError(f"unhandled schema {schema_name}")


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in SCHEMAS:
        names = ", ".join(sorted(SCHEMAS))
        print(f"usage: {sys.argv[0]} <{names}>", file=sys.stderr)
        return 2
    name = sys.argv[1]
    try:
        detail = check(name)
    except (AssertionError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        print(f"{SCHEMAS[name]['file']} FAILED: {e!r}", file=sys.stderr)
        return 1
    print(f"{SCHEMAS[name]['file']} shape OK ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

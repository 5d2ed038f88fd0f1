#!/usr/bin/env python3
"""CI perf gate: serial-throughput floor and peak-RSS ceiling against the
committed trajectory.

Compares the newest entry of a freshly produced trajectory (JSONL, one entry
per bench run) against the best committed BENCH_throughput.json entry measured
on the SAME workload. Entries are keyed by bench_config_hash (FNV-1a over
records|apps|kinds, mirrored from bench_throughput.cpp; legacy lines without
the field get it derived from the same fields). A 2k-record quick entry and a
100k-record overnight entry measure different quantities and must never gate
each other. No like-for-like baseline means no gate (a workload change lands
its own first baseline).

Robustness: trajectory files are append-only JSONL written via an advisory
append path — a crash (or an injected storage fault) can leave a truncated
trailing line, and bit-rot drills can damage any line. Malformed or
structurally wrong lines are reported to stderr and skipped; the gate operates
on the surviving complete entries instead of crashing on the first bad byte.

Two gates run on the newest entry:
  - throughput: serial records/sec must be at least 0.8x the best committed
    like-for-like entry (same bench_config_hash);
  - footprint: peak_rss_bytes must be at most 1.10x the lowest committed
    entry with the same bench_config_hash AND hardware_concurrency (the
    pooled runs' thread count shapes the RSS peak, so entries from another
    core count never gate). Entries without peak_rss_bytes or
    hardware_concurrency (legacy lines) neither gate nor are gated.

Usage: perf_gate.py <current-trajectory.json> <committed-baseline.json>
Exit status: 0 pass or no-baseline skip, 1 regression (either gate) or
unusable input.
"""

import json
import sys


def config_hash(entry):
    """Workload key: committed hash if present, else derived (legacy lines)."""
    if "bench_config_hash" in entry:
        return entry["bench_config_hash"]
    key = (f"{entry['records_per_cell']}|{entry['apps']}|"
           f"{entry['kinds']}")
    h = 1469598103934665603
    for b in key.encode():
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return f"{h:016x}"


def serial_rate(entry):
    """records/sec of the threads==1 run, or None when the entry lacks one."""
    for run in entry.get("runs", []):
        if run.get("threads") == 1:
            return run.get("records_per_sec")
    return None


RSS_CEILING = 1.10


def rss_key(entry):
    """(hardware_concurrency, peak_rss_bytes), or None for legacy entries."""
    hw = entry.get("hardware_concurrency")
    rss = entry.get("peak_rss_bytes")
    if not isinstance(hw, int) or not isinstance(rss, (int, float)) or rss <= 0:
        return None
    return hw, rss


def load_entries(path):
    """Parses a JSONL trajectory, skipping damaged lines with a warning."""
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"{path}:{lineno}: skipping malformed entry ({err})",
                      file=sys.stderr)
                continue
            if not isinstance(entry, dict):
                print(f"{path}:{lineno}: skipping non-object entry",
                      file=sys.stderr)
                continue
            entries.append(entry)
    return entries


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <current.json> <baseline.json>",
              file=sys.stderr)
        return 1

    current_entries = load_entries(argv[1])
    if not current_entries:
        print(f"{argv[1]}: no complete trajectory entries", file=sys.stderr)
        return 1
    current = current_entries[-1]

    try:
        want = config_hash(current)
    except KeyError as err:
        print(f"{argv[1]}: newest entry lacks workload field {err}",
              file=sys.stderr)
        return 1
    rate = serial_rate(current)
    if rate is None:
        print(f"{argv[1]}: no serial run in the newest trajectory entry",
              file=sys.stderr)
        return 1

    current_rss = rss_key(current)
    best = 0.0
    best_rss = None
    for entry in load_entries(argv[2]):
        try:
            if config_hash(entry) != want:
                continue
        except KeyError:
            # A baseline entry too old (or damaged) to key — never gates.
            continue
        entry_rate = serial_rate(entry)
        if entry_rate is not None:
            best = max(best, entry_rate)
        entry_rss = rss_key(entry)
        if (current_rss is not None and entry_rss is not None
                and entry_rss[0] == current_rss[0]):
            best_rss = (entry_rss[1] if best_rss is None
                        else min(best_rss, entry_rss[1]))

    status = 0
    if best == 0.0:
        print(f"no committed baseline for workload {want}; "
              f"serial {rate:,.0f} rec/s recorded, gate skipped")
    else:
        floor = 0.8 * best
        print(f"workload {want}: serial {rate:,.0f} rec/s; best committed "
              f"{best:,.0f}; floor {floor:,.0f}")
        if rate < floor:
            print("perf gate: serial throughput regressed >20% vs the best "
                  "like-for-like baseline entry", file=sys.stderr)
            status = 1

    if current_rss is None:
        print("newest entry has no peak_rss_bytes/hardware_concurrency; "
              "RSS gate skipped")
    elif best_rss is None:
        print(f"no committed RSS baseline for workload {want} at "
              f"{current_rss[0]} threads; RSS gate skipped")
    else:
        ceiling = RSS_CEILING * best_rss
        print(f"workload {want} at {current_rss[0]} threads: peak RSS "
              f"{current_rss[1]:,.0f} B; best committed {best_rss:,.0f}; "
              f"ceiling {ceiling:,.0f}")
        if current_rss[1] > ceiling:
            print("perf gate: peak RSS grew >10% vs the best like-for-like "
                  "baseline entry", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

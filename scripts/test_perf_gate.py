#!/usr/bin/env python3
"""Tests for perf_gate.py, registered with ctest (test_perf_gate).

The load-bearing property: the gate survives the trajectory damage the
storage-fault drills manufacture — truncated trailing lines from a crash
mid-append, rotted bytes anywhere — by skipping the damaged lines, while
still gating correctly on the surviving complete entries.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402


def entry(rate, records=10000, apps=8, kinds=4, threads=(1, 4)):
    return {
        "records_per_cell": records,
        "apps": apps,
        "kinds": kinds,
        "runs": [{"threads": t, "records_per_sec": rate * (1 if t == 1 else 3)}
                 for t in threads],
    }


def with_rss(e, rss=100, hw=4):
    """Adds the footprint fields bench_throughput records (RSS in MB here)."""
    e["hardware_concurrency"] = hw
    e["peak_rss_bytes"] = rss * 1000000
    return e


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, lines):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line if isinstance(line, str) else json.dumps(line))
                f.write("\n")
        return path

    def run_gate(self, current, baseline):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = perf_gate.main(["perf_gate.py", current, baseline])
        return status, out.getvalue(), err.getvalue()

    def test_passes_at_or_above_the_floor(self):
        current = self.write("current.json", [entry(90000.0)])
        baseline = self.write("base.json", [entry(100000.0)])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("floor", out)

    def test_fails_below_the_floor(self):
        current = self.write("current.json", [entry(70000.0)])
        baseline = self.write("base.json", [entry(100000.0)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("regressed", err)

    def test_no_like_for_like_baseline_skips_the_gate(self):
        current = self.write("current.json", [entry(10.0, records=10000)])
        baseline = self.write("base.json", [entry(100000.0, records=100000)])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("gate skipped", out)

    def test_truncated_trailing_line_is_skipped(self):
        # A crash mid-append tears the last record; the gate must fall back
        # to the newest COMPLETE entry, warn, and still gate against it.
        torn = json.dumps(entry(90000.0))[:37]
        current = self.write("current.json", [entry(90000.0), torn])
        baseline = self.write("base.json", [entry(100000.0)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("skipping malformed entry", err)

    def test_rotted_baseline_lines_do_not_crash_the_gate(self):
        baseline = self.write("base.json", [
            "{\"bench_config_hash\": \x07 garbage",   # rotted bytes
            entry(100000.0),
            {"runs": "not-a-list-entry-shape"},        # wrong structure
            "[1, 2, 3]",                               # JSON but not an object
        ])
        current = self.write("current.json", [entry(90000.0)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("skipping", err)

    def test_all_lines_damaged_is_a_loud_failure(self):
        current = self.write("current.json", ["{torn", "also torn"])
        baseline = self.write("base.json", [entry(100000.0)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("no complete trajectory entries", err)

    def test_legacy_baseline_without_hash_field_still_keys(self):
        legacy = entry(100000.0)
        keyed = entry(90000.0)
        keyed["bench_config_hash"] = perf_gate.config_hash(legacy)
        current = self.write("current.json", [keyed])
        baseline = self.write("base.json", [legacy])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("best committed", out)

    def test_entry_without_serial_run_is_unusable_current(self):
        no_serial = entry(90000.0, threads=(2, 4))
        current = self.write("current.json", [no_serial])
        baseline = self.write("base.json", [entry(100000.0)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("no serial run", err)

    # ------------------------------------------------------ peak-RSS ceiling

    def test_rss_within_ceiling_passes(self):
        current = self.write("current.json", [with_rss(entry(100000.0), 109)])
        baseline = self.write("base.json", [with_rss(entry(100000.0), 100)])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("ceiling", out)

    def test_rss_above_ceiling_fails(self):
        current = self.write("current.json", [with_rss(entry(100000.0), 111)])
        baseline = self.write("base.json", [with_rss(entry(100000.0), 100)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("peak RSS grew", err)

    def test_rss_ceiling_is_set_by_the_lowest_committed_entry(self):
        current = self.write("current.json", [with_rss(entry(100000.0), 120)])
        baseline = self.write("base.json", [
            with_rss(entry(100000.0), 150),
            with_rss(entry(100000.0), 100),
            with_rss(entry(100000.0), 130),
        ])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("peak RSS grew", err)

    def test_rss_from_another_core_count_never_gates(self):
        current = self.write("current.json",
                             [with_rss(entry(100000.0), 500, hw=8)])
        baseline = self.write("base.json", [with_rss(entry(100000.0), 100)])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("RSS gate skipped", out)

    def test_rss_from_another_workload_never_gates(self):
        current = self.write("current.json",
                             [with_rss(entry(100000.0, records=2000), 500)])
        baseline = self.write("base.json", [
            entry(100000.0, records=2000),  # same workload, no RSS recorded
            with_rss(entry(100000.0, records=10000), 100),
        ])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("RSS gate skipped", out)

    def test_legacy_lines_without_rss_fields_neither_gate_nor_break(self):
        # Committed lines from before the trajectory recorded peak RSS or the
        # core count: they still set the throughput floor, never the ceiling.
        legacy = entry(100000.0)
        no_hw = with_rss(entry(100000.0), 100)
        del no_hw["hardware_concurrency"]
        current = self.write("current.json", [with_rss(entry(95000.0), 900)])
        baseline = self.write("base.json", [legacy, no_hw])
        status, out, _ = self.run_gate(current, baseline)
        self.assertEqual(status, 0)
        self.assertIn("best committed 100,000", out)
        self.assertIn("RSS gate skipped", out)

    def test_legacy_current_entry_skips_only_the_rss_gate(self):
        current = self.write("current.json", [entry(70000.0)])
        baseline = self.write("base.json", [with_rss(entry(100000.0), 100)])
        status, out, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("regressed", err)
        self.assertIn("RSS gate skipped", out)

    def test_both_gates_report_when_both_fail(self):
        current = self.write("current.json", [with_rss(entry(70000.0), 200)])
        baseline = self.write("base.json", [with_rss(entry(100000.0), 100)])
        status, _, err = self.run_gate(current, baseline)
        self.assertEqual(status, 1)
        self.assertIn("regressed", err)
        self.assertIn("peak RSS grew", err)


if __name__ == "__main__":
    unittest.main()

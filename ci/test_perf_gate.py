#!/usr/bin/env python3
"""Unit tests for ci/perf_gate.py.

Covers the gate's full decision table: a baseline variant missing from
the candidate, a regression past the threshold, an improvement (never
gated), a variant new in the candidate (reported, never gated), and the
zero-baseline hard pin used for cold-start trap counts. The `--ratio`
self-comparison mode (the continuous profiler's 3% on/off overhead
budget) gets its own table: within budget, past budget, an unpaired
row, a custom threshold, and the negative-threshold speedup floor the
fragment-parallel decode gate uses (workers4 must at least halve
serial). The value is found by its `median_ns` header: later columns
are ignored, and a CSV without that column, a row missing its value or
a header with no key columns is a clean error. Missing or unreadable
CSVs must die with a clean perf-gate message in both modes, never a
traceback.

Run directly (`python3 ci/test_perf_gate.py`) or via unittest discovery
(`python3 -m unittest discover ci`); CI runs it in the model-check job.
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402


def write_csv(directory, name, rows):
    path = os.path.join(directory, name)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    return path


HEADER = ["bench", "variant", "median_ns"]


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def run_gate(self, base_rows, cand_rows, threshold=None):
        """Runs perf_gate.main() on two in-tempdir CSVs.

        Returns (exit_code, stdout_text).
        """
        base = write_csv(self.dir, "base.csv", [HEADER] + base_rows)
        cand = write_csv(self.dir, "cand.csv", [HEADER] + cand_rows)
        argv = ["perf_gate.py", base, cand]
        if threshold is not None:
            argv += ["--threshold", str(threshold)]
        out = io.StringIO()
        old_argv, sys.argv = sys.argv, argv
        try:
            with contextlib.redirect_stdout(out):
                code = perf_gate.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue()

    def test_identical_results_pass(self):
        rows = [["dispatch", "direct", "12.5"], ["dispatch", "virtual", "30.0"]]
        code, out = self.run_gate(rows, rows)
        self.assertEqual(code, 0)
        self.assertIn("perf-gate: ok", out)

    def test_missing_variant_fails(self):
        base = [["dispatch", "direct", "12.5"], ["dispatch", "virtual", "30.0"]]
        cand = [["dispatch", "direct", "12.5"]]
        code, out = self.run_gate(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("MISSING", out)
        self.assertIn("present in baseline but not benched", out)

    def test_regression_past_threshold_fails(self):
        base = [["dispatch", "direct", "10.0"]]
        cand = [["dispatch", "direct", "13.0"]]  # +30% > default 25%
        code, out = self.run_gate(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("perf-gate: FAIL", out)

    def test_regression_within_threshold_passes(self):
        base = [["dispatch", "direct", "10.0"]]
        cand = [["dispatch", "direct", "12.0"]]  # +20% < default 25%
        code, out = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSION", out)

    def test_custom_threshold_is_honoured(self):
        base = [["dispatch", "direct", "10.0"]]
        cand = [["dispatch", "direct", "12.0"]]  # +20% > custom 10%
        code, _ = self.run_gate(base, cand, threshold=0.10)
        self.assertEqual(code, 1)

    def test_improvement_passes_and_is_not_ratcheted(self):
        base = [["tracker", "t8", "100.0"]]
        cand = [["tracker", "t8", "40.0"]]
        code, out = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        # The baseline is only re-recorded deliberately; an improvement is
        # printed as an ok row, never as a failure.
        self.assertIn("-60.0%", out)
        self.assertIn("ok", out)

    def test_new_variant_is_reported_but_never_gated(self):
        base = [["dispatch", "direct", "12.5"]]
        cand = [["dispatch", "direct", "12.5"],
                ["dispatch", "megamorphic", "95.0"]]
        code, out = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("new variant", out)
        self.assertIn("not gated", out)

    def test_zero_baseline_pins_cold_traps_at_zero(self):
        # A zero baseline (e.g. warm-start cold_traps) is a hard pin:
        # staying at zero passes, any nonzero candidate is a regression
        # regardless of the threshold.
        base = [["tracker", "cold_traps", "0"]]
        code, _ = self.run_gate(base, [["tracker", "cold_traps", "0"]])
        self.assertEqual(code, 0)
        code, out = self.run_gate(base, [["tracker", "cold_traps", "1"]],
                                  threshold=100.0)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_empty_candidate_file_is_a_hard_error(self):
        base = write_csv(self.dir, "base.csv",
                         [HEADER, ["dispatch", "direct", "12.5"]])
        cand = write_csv(self.dir, "cand.csv", [HEADER])
        old_argv, sys.argv = sys.argv, ["perf_gate.py", base, cand]
        try:
            with self.assertRaises(SystemExit) as cm:
                with contextlib.redirect_stdout(io.StringIO()):
                    perf_gate.main()
        finally:
            sys.argv = old_argv
        self.assertIn("no data rows", str(cm.exception))

    def run_ratio_gate(self, rows, threshold=None,
                       header=("threads", "sampling", "median_ns")):
        """Runs perf_gate.main() in --ratio mode on one in-tempdir CSV."""
        path = write_csv(self.dir, "ratio.csv", [list(header)] + rows)
        argv = ["perf_gate.py", "--ratio", path]
        if threshold is not None:
            argv += ["--threshold", str(threshold)]
        out = io.StringIO()
        old_argv, sys.argv = sys.argv, argv
        try:
            with contextlib.redirect_stdout(out):
                code = perf_gate.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue()

    def test_ratio_within_budget_passes(self):
        rows = [["1", "off", "43.41"], ["1", "on", "44.48"],  # +2.5%
                ["4", "off", "46.76"], ["4", "on", "47.72"]]  # +2.1%
        code, out = self.run_ratio_gate(rows)
        self.assertEqual(code, 0)
        self.assertIn("perf-gate: ok", out)

    def test_ratio_past_budget_fails(self):
        rows = [["1", "off", "40.0"], ["1", "on", "41.0"],   # +2.5%
                ["4", "off", "40.0"], ["4", "on", "42.0"]]   # +5.0% > 3%
        code, out = self.run_ratio_gate(rows)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("perf-gate: FAIL", out)

    def test_ratio_unpaired_row_fails(self):
        rows = [["1", "off", "40.0"], ["1", "on", "40.5"],
                ["4", "on", "41.0"]]  # no off partner
        code, out = self.run_ratio_gate(rows)
        self.assertEqual(code, 1)
        self.assertIn("UNPAIRED", out)

    def test_ratio_custom_threshold_is_honoured(self):
        rows = [["1", "off", "40.0"], ["1", "on", "42.0"]]  # +5%
        code, _ = self.run_ratio_gate(rows, threshold=0.10)
        self.assertEqual(code, 0)
        code, _ = self.run_ratio_gate(rows, threshold=0.03)
        self.assertEqual(code, 1)

    def gate_error(self, argv):
        """Runs perf_gate.main() expecting a clean exit; returns its text."""
        old_argv, sys.argv = sys.argv, ["perf_gate.py"] + argv
        try:
            with self.assertRaises(SystemExit) as cm:
                with contextlib.redirect_stdout(io.StringIO()):
                    perf_gate.main()
        finally:
            sys.argv = old_argv
        msg = str(cm.exception)
        self.assertTrue(msg.startswith("perf-gate: "), msg)
        return msg

    def test_columns_after_median_are_ignored(self):
        # superops.csv shape: the median sits before the IQR and an
        # informational hit-rate column, so the gate pairs on
        # (threads, variant) and reads only the median_ns column.
        header = ("threads", "variant", "median_ns", "iqr_ns", "hit_rate")
        rows = [["1", "off", "17.0", "0.9", "0.00"],
                ["1", "on", "8.0", "0.4", "0.97"],
                ["4", "off", "18.0", "2.0", "0.00"],
                ["4", "on", "18.2", "9.9", "0.95"]]
        code, out = self.run_ratio_gate(rows, header=header)
        self.assertEqual(code, 0)
        self.assertIn("perf-gate: ok", out)

    def test_header_lookup_still_detects_a_regression(self):
        header = ("bench", "variant", "median_ns", "iqr_ns", "mode")
        base = write_csv(self.dir, "base.csv", [list(header),
                         ["server-rr", "serial", "10.0", "0.1", "measured"]])
        cand = write_csv(self.dir, "cand.csv", [list(header),
                         ["server-rr", "serial", "13.0", "0.1", "measured"]])
        out = io.StringIO()
        old_argv, sys.argv = sys.argv, ["perf_gate.py", base, cand]
        try:
            with contextlib.redirect_stdout(out):
                code = perf_gate.main()
        finally:
            sys.argv = old_argv
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out.getvalue())
        self.assertIn("server-rr/serial", out.getvalue())

    def test_csv_without_median_column_is_a_clean_error(self):
        path = write_csv(self.dir, "old.csv",
                         [["threads", "variant", "per_op_ns"],
                          ["1", "off", "17.0"]])
        msg = self.gate_error(["--ratio", path])
        self.assertIn("no 'median_ns' column", msg)

    def test_row_missing_its_value_is_a_clean_error(self):
        path = write_csv(self.dir, "short.csv",
                         [["threads", "variant", "median_ns", "iqr_ns"],
                          ["1", "off"]])
        self.assertIn("has no median_ns value", self.gate_error(["--ratio", path]))
        path = write_csv(self.dir, "blank.csv",
                         [["threads", "variant", "median_ns", "iqr_ns"],
                          ["1", "off", "", "0.5"]])
        self.assertIn("non-numeric", self.gate_error(["--ratio", path]))

    def test_median_without_key_columns_is_a_clean_error(self):
        path = write_csv(self.dir, "nokey.csv",
                         [["median_ns", "iqr_ns"], ["17.0", "0.5"]])
        self.assertIn("no key columns", self.gate_error(["--ratio", path]))

    def test_missing_candidate_file_fails_cleanly(self):
        # Satellite of the decode-gate work: a results CSV the bench never
        # wrote must produce the explicit perf-gate message, not an
        # uncaught FileNotFoundError traceback.
        base = write_csv(self.dir, "base.csv",
                         [HEADER, ["dispatch", "direct", "12.5"]])
        missing = os.path.join(self.dir, "never_recorded.csv")
        old_argv, sys.argv = sys.argv, ["perf_gate.py", base, missing]
        try:
            with self.assertRaises(SystemExit) as cm:
                with contextlib.redirect_stdout(io.StringIO()):
                    perf_gate.main()
        finally:
            sys.argv = old_argv
        msg = str(cm.exception)
        self.assertIn("perf-gate:", msg)
        self.assertIn("cannot read", msg)
        self.assertIn("never_recorded.csv", msg)

    def test_missing_ratio_file_fails_cleanly(self):
        missing = os.path.join(self.dir, "parallel_decode.csv")
        old_argv, sys.argv = sys.argv, ["perf_gate.py", "--ratio", missing]
        try:
            with self.assertRaises(SystemExit) as cm:
                with contextlib.redirect_stdout(io.StringIO()):
                    perf_gate.main()
        finally:
            sys.argv = old_argv
        msg = str(cm.exception)
        self.assertIn("cannot read", msg)
        self.assertIn("bench that records this CSV", msg)

    def test_negative_threshold_gates_a_speedup_floor(self):
        # The fragment-parallel decode gate: workers4 paired against
        # serial with --threshold=-0.5 demands at least a 2x speedup.
        def gate(rows):
            path = write_csv(self.dir, "speedup.csv", [HEADER] + rows)
            argv = ["perf_gate.py", "--ratio", path, "--on-tag", "workers4",
                    "--off-tag", "serial", "--threshold=-0.5"]
            out = io.StringIO()
            old_argv, sys.argv = sys.argv, argv
            try:
                with contextlib.redirect_stdout(out):
                    code = perf_gate.main()
            finally:
                sys.argv = old_argv
            return code, out.getvalue()

        code, out = gate([["server-rr", "serial", "28.5"],
                          ["server-rr", "workers4", "7.2"]])  # 3.96x
        self.assertEqual(code, 0)
        self.assertIn("perf-gate: ok", out)
        # Intermediate worker counts are extra rows, not gated pairs.
        code, _ = gate([["server-rr", "serial", "28.5"],
                       ["server-rr", "workers2", "14.3"],
                       ["server-rr", "workers4", "7.2"]])
        self.assertEqual(code, 0)
        code, out = gate([["server-rr", "serial", "28.5"],
                          ["server-rr", "workers4", "20.0"]])  # only 1.43x
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        code, out = gate([["server-rr", "serial", "28.5"]])  # bench leg lost
        self.assertEqual(code, 1)
        self.assertIn("UNPAIRED", out)

    def test_non_numeric_per_op_value_is_a_hard_error(self):
        base = write_csv(self.dir, "base.csv",
                         [HEADER, ["dispatch", "direct", "12.5"]])
        cand = write_csv(self.dir, "cand.csv",
                         [HEADER, ["dispatch", "direct", "fast"]])
        old_argv, sys.argv = sys.argv, ["perf_gate.py", base, cand]
        try:
            with self.assertRaises(SystemExit) as cm:
                with contextlib.redirect_stdout(io.StringIO()):
                    perf_gate.main()
        finally:
            sys.argv = old_argv
        self.assertIn("non-numeric", str(cm.exception))


if __name__ == "__main__":
    unittest.main()

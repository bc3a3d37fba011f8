#!/usr/bin/env python3
"""Self-tests for the benchmark's own helpers in run.py.

Run from anywhere: python3 perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def span(sid, name, dur_us, parent=0, **attrs):
    args = {"id": sid, "parent": parent, "req_id": "0000000000000001"}
    args.update(attrs)
    return {"name": name, "ph": "X", "ts": 0.0, "dur": float(dur_us), "args": args}


def synthetic_run():
    """A two-query report and trace shaped like zkbench's output."""
    fields = ["q", "lat_ms", "attempt_ms", "verify_ms", "vo_bytes", "attempts", "ok",
              "queue_us", "relax_us", "prove_us", "encode_us", "total_us", "probe_ms",
              "steal_pct"]
    samples = [[0, 10.0, 6.0, 3.0, 700, 1, True, 50, 2000, 1000, 100, 3500, 5.0, 0.0],
               [1, 12.0, 7.0, 4.0, 900, 2, True, 60, 2500, 1100, 120, 4000, 10.0, 20.0]]
    ops = {"pairing": 0, "g_exp": 40, "g_mul": 20, "gt_exp": 2, "gt_mul": 4,
           "sha256_compress": 100, "multi_pairings": 2, "multi_pairing_terms": 20}
    units = {name: 0.01 for name in (
        "abs.sign_ms", "abs.verify_ms", "abs.relax_ms", "group.pairing_ms",
        "group.e_prod_base_ms", "group.e_prod_term_ms", "group.g_exp_ms",
        "group.g_mul_ms", "group.gt_exp_ms", "group.gt_mul_ms", "group.g_decode_ms",
        "group.gt_decode_ms", "hash.sha256_compress_ms")}
    report = {
        "workload": "typea-relax", "seed": 1, "backend": "typea-tiny", "cycle": 2,
        "sample_fields": fields,
        "setup": [{"keygen_s": 0.1, "build_s": 3.0, "save_s": 0.01, "load_s": 1.5,
                   "probes_ms": [5.0, 10.0],
                   "steals_pct": [0.0, 0.0, 0.0, 50.0],
                   "signatures": 73, "ads_bytes": 90000}] * 3,
        "warm": {"samples": samples[:1]},
        "timed": {"wall_s": 1.0, "samples": samples, "fallbacks": 0, "steal_pct": 0.5,
                  "probe0_ms": 5.0},
        "errors": [],
        "traced": {"wall_s": 1.0, "samples": samples, "ops": ops, "fallbacks": 0},
        "sp": {"queries": 2, "ops": ops},
        "units": units,
        "server": {"rss_mb": 16.0, "drain_exit": 0, "zkqac_server_connections_total": 2.0,
                   "zkqac_server_shed_total": 0.0, "zkqac_server_requests_total": 2.0},
        "violations": [],
    }
    events = []
    for q in range(2):
        b = 100 * q
        events += [
            span(b + 1, "bench.query", 11000),
            span(b + 2, "net.connect", 100, b + 1),
            span(b + 3, "net.send", 100, b + 1),
            span(b + 4, "net.wait", 6000, b + 1, total_us=4000),
            span(b + 5, "client.decode", 1000, b + 1, g_points=30),
            span(b + 6, "client.verify", 3000, b + 1),
            span(b + 7, "sp.query", 4000),
            span(b + 8, "sp.range_vo", 3500, b + 7, relax_calls=6, nodes_visited=9,
                 accessible=2, inaccessible_leaf=6, inaccessible_node=0),
            span(b + 9, "abs.relax", 400, b + 8),
            span(b + 10, "vo.encode", 100, b + 7, vo_bytes=800),
        ]
    return report, events


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(run.percentile([10, 20, 30, 40, 50], 25), 20)
        self.assertAlmostEqual(run.percentile(list(range(1, 11)), 90), 9.1)
        self.assertEqual(run.percentile([7], 99), 7)
        self.assertEqual(run.percentile([1, 2, 3], 0), 1)
        self.assertEqual(run.percentile([1, 2, 3], 100), 3)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_has_ten_samples_beyond(self):
        cases = {1: 50, 19: 50, 20: 50, 40: 50, 99: 50, 100: 90,
                 999: 90, 1000: 99, 10 ** 6: 99}
        for n, p in cases.items():
            self.assertEqual(run.tail_percentile(n), p, n)
            if p > 50:
                self.assertGreaterEqual(n * (100 - p) / 100.0, run.TAIL_BEYOND)


class Deadline(unittest.TestCase):
    def test_grows_with_the_window(self):
        # set-up plus the timed window, a traced replay of up to 1.5
        # windows, the SP replay and the ladder all fit
        for seconds in (1, 20, 60):
            self.assertGreaterEqual(run.deadline_s(seconds), 30 + 3.5 * seconds)
        # the contract's 180 s per run holds at the configured window
        with open(run.CONTRACT) as f:
            self.assertLess(run.deadline_s(json.load(f)["run_seconds"]), 180)


class ReferenceCpu(unittest.TestCase):
    def test_scaling(self):
        ref = run.PROBE_REF_MS
        self.assertAlmostEqual(run.scaled(100.0, ref, 0.0), 100.0)
        # a CPU half as fast reads twice as long
        self.assertAlmostEqual(run.scaled(100.0, 2 * ref, 0.0), 50.0)
        # a quarter stolen: three quarters of the wall time was the VM's
        self.assertAlmostEqual(run.scaled(100.0, ref, 25.0), 75.0)
        for probe, steal in ((0.0, 0.0), (ref, 100.0), (ref, -1.0)):
            with self.assertRaises(ValueError):
                run.scaled(1.0, probe, steal)

    def test_setup_scales_each_step(self):
        report, _ = synthetic_run()
        rep = report["setup"][0]
        # the mean of the set-up probes [5, 10] x 3 is 7.5; load ran
        # with half the CPU stolen
        self.assertEqual(run.setup_probe_ms(report), 7.5)
        want = (0.1 + 3.0 + 0.01 + 1.5 / 2) * run.PROBE_REF_MS / 7.5
        self.assertAlmostEqual(run.setup_scaled_s(rep, 7.5), want)
        self.assertAlmostEqual(run.end_to_end(report)["setup_s"][0], want)
        self.assertAlmostEqual(run.setup_total_s(rep), 4.61)

    def test_latency_on_synthetic_run(self):
        report, _ = synthetic_run()
        e2e = run.end_to_end(report)
        ref = run.PROBE_REF_MS
        # the window's probes [5, 5, 10] have mean 20/3; query 1 ran with
        # a fifth stolen: 10 x ref/(20/3) and 12 x ref/(20/3) x 0.8
        want = (10.0 + 12.0 * 0.8) / 2 * ref / (20.0 / 3.0)
        self.assertAlmostEqual(e2e["latency_p50_ms"][0], want)
        self.assertAlmostEqual(run.raw_times(report)["raw.latency_p50_ms"][0], 11.0)


class Cycles(unittest.TestCase):
    def test_whole_cycles_only(self):
        report = {"cycle": 8}
        self.assertEqual(run.whole_cycles(report, list(range(21))), list(range(16)))
        self.assertEqual(run.whole_cycles(report, list(range(8))), list(range(8)))
        # fewer than one cycle: every sample
        self.assertEqual(run.whole_cycles(report, list(range(5))), list(range(5)))


class Accounting(unittest.TestCase):
    def test_residual(self):
        self.assertAlmostEqual(run.residual_pct(100.0, 85.0), 15.0)
        self.assertAlmostEqual(run.residual_pct(100.0, 120.0), -20.0)
        with self.assertRaises(ValueError):
            run.residual_pct(0.0, 1.0)

    def test_prediction_prices_every_op(self):
        units = {u: 0.0 for u in run.UNIT_OF_OP.values()}
        units.update({"group.g_exp_ms": 2.0, "group.e_prod_base_ms": 5.0,
                      "group.e_prod_term_ms": 1.0, "group.g_decode_ms": 0.5})
        ops = {"g_exp": 3, "multi_pairings": 2, "multi_pairing_terms": 10}
        # 3 exps x 2 + 2 products x 5 + 8 extra terms x 1 + 4 points x 0.5
        self.assertAlmostEqual(run.predicted_ms(ops, units, decoded_points=4), 26.0)

    def test_self_time_subtracts_children(self):
        events = [span(1, "a", 10000), span(2, "b", 3000, 1), span(3, "c", 4000, 1),
                  span(4, "d", 1000, 3)]
        own = run.self_times(events)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)


class MetricNames(unittest.TestCase):
    def test_every_emitted_metric_is_declared(self):
        declared = run.load_contract()
        report, events = synthetic_run()
        e2e = run.end_to_end(report)
        layer = run.per_layer(report, events, e2e)
        self.assertEqual(run.check_names(e2e, declared["end_to_end"]), [])
        self.assertEqual(run.check_names(layer, declared["per_layer"]), [])
        for section in declared.values():
            for name, unit in section.items():
                self.assertRegex(name, run.METRIC_NAME)
                self.assertTrue(unit)

    def test_check_names_reports_problems(self):
        declared = {"qps": "1/s", "latency_p50_ms": "ms"}
        problems = run.check_names({"qps": (1.0, "ms"), "bad name": (1.0, "ms")}, declared)
        self.assertEqual(len(problems), 3)

    def test_accounting_on_synthetic_run(self):
        report, events = synthetic_run()
        e2e = run.end_to_end(report)
        layer = run.per_layer(report, events, e2e)
        self.assertAlmostEqual(layer["net.transfer_ms"][0], 2.1)
        self.assertAlmostEqual(layer["client.decode_ms"][0], 1.0)
        self.assertAlmostEqual(layer["ops.client.g_decode"][0], 30.0)
        self.assertAlmostEqual(layer["sp.relax_calls"][0], 6.0)
        self.assertAlmostEqual(layer["client.retries_per_query"][0], 0.5)


if __name__ == "__main__":
    unittest.main()

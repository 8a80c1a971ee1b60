"""Self-test of the benchmark's own logic: python3 bench/selftest.py

Self time from synthetic nested and two-thread spans, the tracer's parent
links across threads, and the draw count and checks on hand-counted reports.
Needs neither `nestmc` nor a timed run.
"""

from __future__ import annotations

import threading
import unittest

from tracing import Tracer, layer_metrics, summarize
from workloads import WORKLOADS, check, draws, parse_report

# Reports as `nestmc` printed them for these workloads at --seed 7.
SMALL_ROWS = """\
T,N,M,reps,mean,mse,mse_se,degenerate_frac
16,4,4,200,-1.337948946673938,0.16853297762395947,0.030536581227242236,0.0
37,6,6,200,-1.2609369865788609,0.05598504798884779,0.008357620851605655,0.0
84,9,9,200,-1.2197655742248512,0.020048455073167767,0.002339167560888859,0.0
194,13,13,200,-1.2098546093103943,0.010449782242563042,0.001087022889492573,0.0
446,21,21,200,-1.1824124858500418,0.0028705201502267556,0.00025602712516038155,0.0
1024,32,32,200,-1.1779216438522355,0.001443428176050313,0.000148816352043236,0.0
# slope=-1.1465155459717762 intercept=0.5683144134276186
"""
CRN_RACE = """\
policy,N,M,mse,mse_se,rank
"tau:alpha=1,c=1",256,256,0.00010190227013298762,4.722240287522053e-05,1
"tau:alpha=2,c=1",1600,40,0.00014919509245001742,2.345141431607051e-05,2
"tau:alpha=0.5,c=1",40,1600,0.0005437329666980945,0.00012633001327069554,3
"""

# One thread: cli.main [0,100] > nmc_estimate [10,40] > uniforms [15,25],
# and cli.main > phi [50,70].  Tuples: (id, parent, name, thread, start, end, counts).
NESTED = [
    (3, 2, "rng.StreamBatch.uniforms", 1, 15, 25, (10, 0, 0)),
    (2, 1, "estimators.nmc_estimate", 1, 10, 40, (16, 4, 0)),
    (4, 1, "models.phi", 1, 50, 70, (16, 0, 0)),
    (1, 0, "cli.main", 1, 0, 100, (0, 0, 0)),
]


def self_ns(stats):
    return {name: st.self_ns for name, st in stats.items()}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        stats = summarize(NESTED)
        self.assertEqual(self_ns(stats), {"rng.StreamBatch.uniforms": 10,
                                          "estimators.nmc_estimate": 20,
                                          "models.phi": 20, "cli.main": 50})
        self.assertEqual(sum(self_ns(stats).values()), 100)

    def test_tracer_overhead_is_subtracted(self):
        # 1 ns inside each span, 2 ns outside it in its caller.
        stats = summarize(NESTED, overhead=(1, 2))
        self.assertEqual(self_ns(stats), {"rng.StreamBatch.uniforms": 9,
                                          "estimators.nmc_estimate": 17,
                                          "models.phi": 19, "cli.main": 45})
        # Self times add up to the root's time without the tracer: 100 - 4*1 - 3*2.
        self.assertEqual(sum(self_ns(stats).values()), 90)
        self.assertEqual(stats["cli.main"].total_ns, 90)

    def test_two_threads(self):
        # Main thread 1 waits in compare_policies while threads 2 and 3 run
        # one estimate each; their spans have no parent on their own thread.
        spans = [
            (3, 0, "estimators.nmc_estimate", 2, 10, 50, (100, 10, 1)),
            (5, 4, "rng.StreamBatch.gaussians", 3, 20, 30, (100, 0, 0)),
            (4, 0, "estimators.nmc_estimate", 3, 12, 52, (100, 10, 0)),
            (2, 1, "harness.compare_policies", 1, 5, 95, (1, 0, 0)),
            (1, 0, "cli.main", 1, 0, 100, (0, 0, 0)),
        ]
        stats = summarize(spans)
        self.assertEqual(self_ns(stats), {"estimators.nmc_estimate": 70,
                                          "rng.StreamBatch.gaussians": 10,
                                          "harness.compare_policies": 90, "cli.main": 10})
        m = layer_metrics(stats, calls=1, workers=2, traced_wall_s=110e-9,
                          untraced_wall_s=100e-9, report_bytes=248)
        self.assertAlmostEqual(m["harness.busy_frac"][0], 80 / (90 * 2))
        # The 80 ns the two threads ran, over 2 workers, is waiting, not harness work.
        self.assertAlmostEqual(m["harness.self_s"][0], (90 - 80 / 2) / 1e9)
        # The main thread's self times, 10 + 90, cover the untraced wall.
        self.assertAlmostEqual(m["trace.self_sum_frac"][0], 1.0)
        self.assertAlmostEqual(m["estimators.useful_frac"][0], 1 - 1 / 20)
        self.assertAlmostEqual(m["estimators.fixed_us_per_call"][0], 35 / 1e3)
        self.assertAlmostEqual(m["rng.gauss_ns_per_draw"][0], 10 / 100)
        self.assertAlmostEqual(m["trace.overhead_frac"][0], 0.1)
        self.assertEqual(m["harness.reps"][0], 1)

    def test_tracer_links_parents_per_thread(self):
        t = Tracer()
        inner = t.wrap("rng.inner", lambda: None)
        outer = t.wrap("estimators.outer", lambda: inner())
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        inner_main, outer_span, inner_thread = t.spans()
        self.assertEqual(inner_main[1], outer_span[0])
        self.assertEqual((outer_span[1], inner_thread[1]), (0, 0))
        self.assertNotEqual(inner_main[3], inner_thread[3])


class Reports(unittest.TestCase):
    def test_draws_hand_counted(self):
        # 200 * (4*4 + 6*6 + 9*9 + 13*13 + 21*21 + 32*32) and
        # 20 * (256*256 + 1600*40 + 40*1600).
        self.assertEqual(draws(WORKLOADS["small-rows"], parse_report(SMALL_ROWS)), 353_400)
        self.assertEqual(draws(WORKLOADS["crn-race"], parse_report(CRN_RACE)), 3_870_720)

    def test_checks_pass_on_good_reports(self):
        self.assertEqual(check(WORKLOADS["small-rows"], 0, SMALL_ROWS), [])
        self.assertEqual(check(WORKLOADS["crn-race"], 0, CRN_RACE), [])

    def test_checks_catch_bad_runs(self):
        w = WORKLOADS["small-rows"]
        self.assertTrue(check(w, 3, SMALL_ROWS))
        self.assertTrue(check(w, 0, SMALL_ROWS.replace("0.030536581227242236", "degenerate")))
        self.assertTrue(check(w, 0, SMALL_ROWS.replace("1024,32,32,200,", "1024,32,32,100,")))
        self.assertTrue(check(w, 0, ""))
        self.assertTrue(check(WORKLOADS["crn-race"], 0, CRN_RACE.replace(",2\n", ",1\n")))


if __name__ == "__main__":
    unittest.main()

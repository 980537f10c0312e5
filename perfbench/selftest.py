"""Self-test of the benchmark harness: python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, the scan /
validation / direct classification of recursion evaluations, the wrapping of
every public binding, and that the output checker rejects corrupted stdout.
"""

import json
import sys
import unittest

import run
import spans


def replay(prof, events):
    """Feed ("open", name, t) / ("close", t) events to a Profile."""
    for ev in events:
        if ev[0] == "open":
            prof.open(ev[1], ev[2])
        else:
            prof.close(ev[1])


def metrics_of(prof, traced=None, run_values=None):
    totals = spans.merge([prof.to_json()])
    every_name = {n for _name, _unit, _better, (_value, needs), *_ in spans.METRICS for n in needs}
    names = set(traced) if traced is not None else every_name
    values = run_values or {"verify_cases": 0, "out_bytes": 0, "overhead_ratio": 1.0}
    metrics, absent = spans.layer_metrics(totals, names, values)
    return {k: v["value"] for k, v in metrics.items()}, absent


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        prof = spans.Profile()
        replay(prof, [
            ("open", "towers.enumerate_rational", 0.0),
            ("open", "towers.eval_F", 1.0),
            ("open", "field.FieldCtx.mul", 2.0),
            ("close", 4.0),
            ("close", 5.0),
            ("open", "field.FieldCtx.mul", 6.0),
            ("close", 7.0),
            ("close", 10.0),
        ])
        self.assertEqual(prof.self_s, {
            "towers.enumerate_rational": 5.0,  # 10 - (4 + 1)
            "towers.eval_F": 2.0,  # 4 - 2
            "field.FieldCtx.mul": 3.0,  # 2 + 1
        })
        self.assertEqual(prof.calls["field.FieldCtx.mul"], 2)
        self.assertEqual(prof.pairs[("towers.eval_F", "field.FieldCtx.mul")], 1)
        self.assertEqual(prof.pairs[(spans.ROOT, "towers.enumerate_rational")], 1)
        m, _ = metrics_of(prof)
        self.assertEqual((m["towers.self_s"], m["field.self_s"]), (7.0, 3.0))
        self.assertEqual(m["field.mul.calls"], 2)

    def test_recursive_span_counted_once_in_total(self):
        prof = spans.Profile()
        replay(prof, [
            ("open", "towers.TowerPoint.__init__", 0.0),
            ("open", "towers.TowerPoint.__init__", 1.0),
            ("close", 3.0),
            ("close", 4.0),
        ])
        self.assertEqual(prof.total_s["towers.TowerPoint.__init__"], 4.0)
        self.assertEqual(prof.self_s["towers.TowerPoint.__init__"], 4.0)
        self.assertEqual(metrics_of(prof)[0]["towers.validate_s"], 4.0)

    def test_merge_sums_children(self):
        a, b = spans.Profile(), spans.Profile()
        replay(a, [("open", "ore.kernel", 0.0), ("close", 2.0)])
        replay(b, [("open", "ore.kernel", 0.0), ("close", 1.0)])
        totals = spans.merge([a.to_json(), b.to_json()])
        self.assertEqual(totals["calls"]["ore.kernel"], 2)
        self.assertEqual(totals["self_s"]["ore.kernel"], 3.0)
        self.assertEqual(totals["pairs"][(spans.ROOT, "ore.kernel")], 2)


class Classification(unittest.TestCase):
    def test_scan_validation_direct(self):
        prof = spans.Profile()
        zero, nonzero = (0, 0), (1, 0)
        eval_F = spans._wrap(lambda v: v, "towers.eval_F", prof)
        eval_G = spans._wrap(lambda v: v, "towers.eval_G", prof)

        def helper(values):  # an untraced private helper between the two
            return [eval_F(v) for v in values]

        enumerate_rational = spans._wrap(lambda: helper([zero, nonzero, zero]), spans.ENUMERATE, prof)
        construct = spans._wrap(lambda: helper([zero, zero]), spans.CONSTRUCT_POINT, prof)
        rsu = spans._wrap(lambda: eval_F(zero), "towers.rsu", prof)

        enumerate_rational()
        construct()
        rsu()
        eval_G(nonzero)
        m, _ = metrics_of(prof)
        self.assertEqual(m["towers.scan_evals"], 3)
        self.assertAlmostEqual(m["towers.scan_hit_ratio"], 2 / 3)
        self.assertEqual(m["towers.validate_evals"], 2)
        self.assertEqual(m["towers.points"], 1)
        self.assertEqual(prof.calls["towers.eval_F"] + prof.calls["towers.eval_G"], 7)

    def test_splitting_ambients_counts_kernels_under_the_search(self):
        prof = spans.Profile()
        replay(prof, [
            ("open", spans.SPLITTING, 0.0),
            ("open", "ore.kernel", 1.0), ("close", 2.0),
            ("open", "ore.kernel", 2.0), ("close", 3.0),
            ("close", 4.0),
            ("open", "ore.kernel", 5.0), ("close", 6.0),
        ])
        m, _ = metrics_of(prof)
        self.assertEqual((m["ore.splitting_degree.calls"], m["ore.splitting_degree.ambients"]), (1, 2))
        self.assertEqual(m["ore.kernel.calls"], 3)

    def test_missing_public_name_is_absent(self):
        prof = spans.Profile()
        replay(prof, [("open", "ore.kernel", 0.0), ("close", 1.0)])
        traced = {"ore.kernel", spans.ENUMERATE, spans.CONSTRUCT_POINT, *spans.RECURSION_EVALS}
        m, absent = metrics_of(prof, traced)
        self.assertIn("towers.fiber_solutions.calls", absent)
        self.assertNotIn("towers.fiber_solutions.calls", m)
        self.assertEqual(m["towers.scan_evals"], 0)


class Install(unittest.TestCase):
    def test_every_public_binding_is_wrapped(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import drinfeld_towers
        from drinfeld_towers import field, isogeny, ore, towers, verify

        private = (towers._level_candidates, field._BaseOps.mul)
        prof = spans.Profile()
        traced = spans.install(drinfeld_towers, prof)
        self.assertIn("ore.splitting_degree", traced)
        self.assertIn("field.FieldCtx.mul", traced)
        self.assertNotIn("towers._level_candidates", traced)
        for fn in (verify.splitting_degree, verify.kernel, isogeny.ore_mul, isogeny.evaluate,
                   drinfeld_towers.make_field, verify._SUITE_FUNCS["theta"], field.FieldCtx.mul):
            self.assertTrue(hasattr(fn, "__wrapped__"), fn)
        self.assertIs(verify.splitting_degree, ore.splitting_degree)
        self.assertIs(towers._level_candidates, private[0])
        self.assertIs(field._BaseOps.mul, private[1])

        verify.run_suite("theta", ((2, 1, 2, 1),))
        self.assertGreater(prof.calls["ore.splitting_degree"], 0)
        self.assertGreater(prof.pairs[(spans.SPLITTING, "ore.kernel")], 0)
        self.assertEqual(prof.calls["verify.suite_theta"], 1)


class Checker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = json.loads(run.REFERENCE.read_text())
        cls.cmd = run.WORKLOADS["points-F"][1]  # points ... --n 5 --variant F, 1,792 lines
        res = run.run_child(cls.cmd.setup, False, cls.cmd.args(0), 120)
        cls.out, cls.err, cls.code = res.stdout, res.stderr, res.returncode

    def judge(self, out=None, code=None, err=None, seed=0):
        return run.judge(self.cmd, seed, self.code if code is None else code,
                         self.out if out is None else out, self.err if err is None else err, self.reference)

    def test_real_output_passes(self):
        ok = self.judge()
        self.assertTrue(ok.ok, ok.reason)
        self.assertEqual(ok.items, 1792)

    def test_corrupted_stdout_rejected(self):
        i = self.out.index(b'"coords": ["[') + len(b'"coords": ["[')
        flipped = self.out[:i] + (b"1" if self.out[i:i + 1] == b"0" else b"0") + self.out[i + 1:]
        for seed in (0, 7):  # this command ignores the seed, so its digest applies at every seed
            self.assertFalse(self.judge(out=flipped, seed=seed).ok)

    def test_count_and_duplicates_rejected(self):
        lines = self.out.splitlines(keepends=True)
        for bad in (b"".join(lines[:-1]), b"".join(lines[:-1] + lines[:1])):
            with self.assertRaises(run.CheckFailed):
                self.cmd.check(bad, self.cmd, 0)

    def test_exit_code_and_missing_stats_rejected(self):
        self.assertFalse(self.judge(code=1).ok)
        self.assertFalse(self.judge(err=b"Traceback ...\n").ok)

    def test_verify_failures_and_ss_count_mismatch_rejected(self):
        cmd = run.WORKLOADS["verify-f4"][0]
        entry = {"check": "theta", "params": {}, "ambient_degree": 6, "cases_run": 3, "failures": []}
        good = json.dumps({"config": {"seed": 5}, "report": [entry]}).encode()
        self.assertEqual(cmd.check(good, cmd, 5), (3, 3))
        bad = json.dumps({"config": {"seed": 5}, "report": [dict(entry, failures=["x"])]}).encode()
        with self.assertRaises(run.CheckFailed):
            cmd.check(bad, cmd, 5)
        ss = run.WORKLOADS["points-F"][0]
        with self.assertRaises(run.CheckFailed):
            ss.check(b'{"enumerated": 3099, "formula": 3100, "match": false}', ss, 0)


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_harness(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(m[0], m[1], m[2]) for m in spans.METRICS],
        )
        outcome = run.Outcome(True, items=1, setup_s=0.1, rss_mb=1.0)
        units = {k: v["unit"] for k, v in run.end_to_end([run.Pass([1.0], [1.0], [outcome])]).items()}
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, units)


if __name__ == "__main__":
    unittest.main()

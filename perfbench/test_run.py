"""Self-tests for run.py's checks of BENCHMARK.json and of result lines.

Run with ``python3 perfbench/run.py --self-test`` (which also runs the
Rust helpers' tests) or ``python3 -m unittest discover -s perfbench``.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def committed_spec():
    with open(run.SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def result_line(spec, trace=False, **overrides):
    metrics = {
        m["name"]: {"value": 1.5, "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    res = {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}
    res.update(overrides)
    return json.dumps(res)


class SpecSchema(unittest.TestCase):
    def setUp(self):
        self.spec = committed_spec()

    def test_committed_file_meets_the_contract(self):
        run.check_spec(self.spec)
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(all(p == "perfbench" or p.startswith("perfbench/") for p in self.spec["paths"]))
        self.assertLessEqual(os.path.getsize(run.SPEC_PATH), 64 * 1024)

    def assert_rejected(self, mutate):
        doc = copy.deepcopy(self.spec)
        mutate(doc)
        with self.assertRaises(run.BenchError):
            run.check_spec(doc)

    def test_mutations_are_rejected(self):
        self.assert_rejected(lambda d: d.pop("per_layer"))
        self.assert_rejected(lambda d: d.update(extra=1))
        self.assert_rejected(lambda d: d.update(run_seconds=61))
        self.assert_rejected(lambda d: d.update(run_seconds=True))
        self.assert_rejected(lambda d: d.update(command=["python3", "/abs/run.py"]))
        self.assert_rejected(lambda d: d.update(paths=["../outside"]))
        self.assert_rejected(lambda d: d["workloads"].pop() and d["workloads"].pop())
        self.assert_rejected(lambda d: d["workloads"][0].update(why="two\nlines"))
        self.assert_rejected(lambda d: d["end_to_end"][1].update(bound=0.3))
        self.assert_rejected(lambda d: d["end_to_end"][1].update(better="up"))
        self.assert_rejected(lambda d: d["end_to_end"][1].update(name="_bad"))
        self.assert_rejected(lambda d: d["end_to_end"][1].update(unit="m s"))
        self.assert_rejected(lambda d: d["per_layer"][0].update(bound=0.1))
        self.assert_rejected(lambda d: d["per_layer"].append(dict(d["per_layer"][0])))
        self.assert_rejected(lambda d: d["end_to_end"][0].update(bound=0.01))
        self.assert_rejected(
            lambda d: d["end_to_end"].remove(next(m for m in d["end_to_end"] if m["name"] == "setup_s"))
        )


class NameCharset(unittest.TestCase):
    def test_names_and_units(self):
        for ok in ("setup_s", "core.epochs", "a-b_c.d", "9lives", "x" * 64):
            self.assertTrue(run.NAME_RE.fullmatch(ok), ok)
        for bad in ("", "_lead", ".lead", "sp ace", "semi;colon", "slash/", "\u00e9", "trail\n", "x" * 65):
            self.assertFalse(run.NAME_RE.fullmatch(bad), repr(bad))
        for ok in ("s", "1/s", "%", "count", "u" * 16):
            self.assertTrue(run.UNIT_RE.fullmatch(ok), ok)
        for bad in ("", "m s", "u" * 17):
            self.assertFalse(run.UNIT_RE.fullmatch(bad), repr(bad))


class ResultLine(unittest.TestCase):
    def setUp(self):
        self.spec = committed_spec()

    def test_good_lines_pass_in_both_modes(self):
        for trace in (False, True):
            res = run.check_result(result_line(self.spec, trace), self.spec, trace)
            self.assertEqual(res["attempted"], 4)

    def assert_rejected(self, line, trace=False):
        with self.assertRaises(run.BenchError):
            run.check_result(line, self.spec, trace)

    def test_bad_lines_are_rejected(self):
        self.assert_rejected("not json")
        self.assert_rejected(result_line(self.spec, attempted=0))
        self.assert_rejected(result_line(self.spec, failed=-1))
        self.assert_rejected(result_line(self.spec, correct="yes"))
        # End-to-end metrics where per-layer ones are due, and vice versa.
        self.assert_rejected(result_line(self.spec, trace=False), trace=True)
        self.assert_rejected(result_line(self.spec, trace=True), trace=False)
        res = json.loads(result_line(self.spec))
        res["metrics"]["setup_s"]["unit"] = "ms"
        self.assert_rejected(json.dumps(res))
        res = json.loads(result_line(self.spec))
        res["metrics"]["setup_s"]["value"] = "fast"
        self.assert_rejected(json.dumps(res))
        res = json.loads(result_line(self.spec))
        res["extra"] = 1
        self.assert_rejected(json.dumps(res))


if __name__ == "__main__":
    unittest.main()

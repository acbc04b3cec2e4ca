"""repro-bench: suite runs, document schema, baseline diff + gate."""

import copy
import glob
import json
import os

import pytest

from repro.telemetry.bench import (
    BENCH_SCHEMA,
    METRIC_THRESHOLD,
    SUITES,
    Delta,
    diff_bench,
    find_baseline,
    gate,
    run_suite,
    suite_ids,
    validate_bench,
)
from repro.tools import bench_cli

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


@pytest.fixture(scope="module")
def tiny_doc():
    """One real (fast) suite run, shared across this module's tests."""
    SUITES["_tiny"] = ("fig1",)
    try:
        return run_suite("_tiny")
    finally:
        del SUITES["_tiny"]


class TestSuites:
    def test_known_suites_resolve(self):
        for name in SUITES:
            ids = suite_ids(name)
            assert ids, name

    def test_suites_cover_the_registry(self):
        """Every experiment runs in exactly one suite, and each suite's
        ``bench/<suite>/`` holds one baseline, of exactly that suite's
        experiments: CI gates each suite against it, and the paper
        claims in ``tests/test_experiments_doc.py`` read it."""
        from repro.experiments.runner import REGISTRY
        assert sorted(i for ids in SUITES.values() for i in ids) == \
            sorted(REGISTRY)
        assert sorted(os.listdir(BENCH_DIR)) == sorted(SUITES)
        for name, ids in SUITES.items():
            paths = glob.glob(os.path.join(BENCH_DIR, name, "BENCH_*.json"))
            assert len(paths) == 1, name
            with open(paths[0], encoding="utf-8") as fh:
                assert sorted(json.load(fh)["experiments"]) == sorted(ids)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_ids("nope")


class TestRunSuite:
    def test_document_is_valid_and_complete(self, tiny_doc):
        assert validate_bench(tiny_doc) == []
        assert tiny_doc["schema"] == BENCH_SCHEMA
        assert tiny_doc["completed"] is True
        entry = tiny_doc["experiments"]["fig1"]
        assert entry["requests"] > 0
        assert entry["metrics"]  # model outputs captured
        # deterministic values only: no host time anywhere
        assert set(entry) == {"requests", "metrics"}
        assert set(tiny_doc) == {"schema", "suite", "scale", "seed",
                                 "completed", "manifest", "experiments"}

    def test_manifest_embedded(self, tiny_doc):
        from repro.telemetry.manifest import validate_manifest
        assert validate_manifest(tiny_doc["manifest"]) == []
        assert tiny_doc["manifest"]["config"]["suite"] == "_tiny"

    def test_json_round_trip(self, tiny_doc):
        assert validate_bench(json.loads(json.dumps(tiny_doc))) == []


class TestValidate:
    def test_flags_missing_keys(self):
        problems = validate_bench({"schema": BENCH_SCHEMA})
        assert any("experiments" in p for p in problems)

    def test_flags_wrong_schema(self, tiny_doc):
        assert any("schema" in p for p in validate_bench({"schema": "x/0"}))
        earlier = dict(tiny_doc, schema="repro.bench/2")
        assert any("schema" in p for p in validate_bench(earlier))


class TestDiffAndGate:
    def _pair(self, tiny_doc):
        old = copy.deepcopy(tiny_doc)
        new = copy.deepcopy(tiny_doc)
        return old, new

    def test_identical_runs_have_no_metric_drift(self, tiny_doc):
        old, new = self._pair(tiny_doc)
        deltas = diff_bench(old, new)
        assert deltas == []
        assert gate(deltas) == []

    def test_metric_drift_gates(self, tiny_doc):
        old, new = self._pair(tiny_doc)
        keys = iter(new["experiments"]["fig1"]["metrics"])
        drifted, nudged = next(keys), next(keys)
        new["experiments"]["fig1"]["metrics"][drifted] *= 1.10
        # a change inside the threshold is reported but does not gate
        new["experiments"]["fig1"]["metrics"][nudged] *= \
            1 + METRIC_THRESHOLD / 2
        deltas = diff_bench(old, new)
        assert sorted(d.key for d in deltas) == sorted([drifted, nudged])
        assert [d.key for d in gate(deltas)] == [drifted]

    def test_request_count_change_is_a_metric(self, tiny_doc):
        old, new = self._pair(tiny_doc)
        new["experiments"]["fig1"]["requests"] += 1
        deltas = diff_bench(old, new)
        assert any(d.key == "fig1.requests" for d in deltas)

    def test_delta_render(self):
        delta = Delta("x.y", 10.0, 11.0)
        assert delta.render() == "x.y: 10 -> 11 (+10.00%)"
        assert delta.rel == pytest.approx(0.1)
        assert Delta("x.y", 0, 0).rel == 0.0
        assert "(inf)" in Delta("x.y", 0, 1).render()


class TestBaselineDiscovery:
    def test_latest_by_name_excluding_output(self, tmp_path):
        for name in ("BENCH_2026-08-01.json", "BENCH_2026-08-05.json",
                     "BENCH_2026-08-06.json", "other.json"):
            (tmp_path / name).write_text("{}")
        latest = find_baseline(str(tmp_path), exclude="BENCH_2026-08-06.json")
        assert os.path.basename(latest) == "BENCH_2026-08-05.json"

    def test_empty_or_missing_directory(self, tmp_path):
        assert find_baseline(str(tmp_path)) is None
        assert find_baseline(str(tmp_path / "absent")) is None


class TestCli:
    def test_list_suites(self, capsys):
        assert bench_cli.main(["--list"]) == 0
        assert "smoke:" in capsys.readouterr().out

    def test_check_valid_document(self, tmp_path, tiny_doc, capsys):
        path = tmp_path / "BENCH_2026-08-05.json"
        path.write_text(json.dumps(tiny_doc))
        assert bench_cli.main(["--check", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_check_invalid_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert bench_cli.main(["--check", str(path)]) == bench_cli.EXIT_USAGE

    def test_run_diff_and_regression_gate(self, tmp_path, tiny_doc,
                                          monkeypatch, capsys):
        """End-to-end: doctored baseline -> exit 3; the true one -> 0."""
        monkeypatch.setitem(SUITES, "_tiny", ("fig1",))
        doctored = copy.deepcopy(tiny_doc)
        key = next(iter(doctored["experiments"]["fig1"]["metrics"]))
        doctored["experiments"]["fig1"]["metrics"][key] *= 1.5
        (tmp_path / "BENCH_2026-01-01.json").write_text(json.dumps(doctored))
        code = bench_cli.main([
            "--suite", "_tiny", "--out", str(tmp_path),
            "--date", "2026-01-02"])
        assert code == bench_cli.EXIT_REGRESSION
        capsys.readouterr()
        # the same run against the undoctored document passes
        true_path = tmp_path / "true.json"
        true_path.write_text(json.dumps(tiny_doc))
        code = bench_cli.main([
            "--suite", "_tiny", "--out", str(tmp_path),
            "--date", "2026-01-03", "--baseline", str(true_path)])
        assert code == 0
        assert "0 metric value(s) changed" in capsys.readouterr().out
        written = json.loads(
            (tmp_path / "BENCH_2026-01-03.json").read_text())
        assert validate_bench(written) == []

    @pytest.mark.parametrize("named", [True, False],
                             ids=["named", "discovered"])
    @pytest.mark.parametrize("stale", ["empty", "schema2"])
    def test_invalid_baseline_exits_two(self, tmp_path, tiny_doc,
                                        monkeypatch, capsys, named, stale):
        """A stale baseline fails the run instead of skipping the gate."""
        monkeypatch.setitem(SUITES, "_tiny", ("fig1",))
        doc = {} if stale == "empty" else \
            dict(tiny_doc, schema="repro.bench/2")
        base_path = tmp_path / "BENCH_2026-01-01.json"
        base_path.write_text(json.dumps(doc))
        # a discovered baseline sits in the output directory
        out = tmp_path / "out" if named else tmp_path
        args = ["--suite", "_tiny", "--out", str(out), "--date", "2026-01-02"]
        if named:
            args += ["--baseline", str(base_path)]
        assert bench_cli.main(args) == bench_cli.EXIT_USAGE
        assert "is invalid" in capsys.readouterr().err

"""Crash-tolerant campaign scheduler: hangs, crashes, retries, exits."""

import json
import time

import pytest

from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.runner import (
    EXIT_ALL_FAILED,
    EXIT_OK,
    EXIT_PARTIAL,
    REGISTRY,
    _run_parallel,
    _spec,
    campaign_exit_code,
    run_all,
)


def _run_hang(scale):
    time.sleep(30)
    return ExperimentResult(experiment="hang", title="never returns")


def _run_boom(scale):
    raise RuntimeError("deliberate kaboom")


def _run_fine(scale):
    return ExperimentResult(experiment="fine", title="trivially ok",
                            metrics={"answer": 42.0})


@pytest.fixture
def synthetic_specs():
    """Register hang/boom/fine dummies; fork workers inherit them."""
    specs = {
        "hang": _spec("hang", _run_hang, "test", "sleeps forever", 0.1, []),
        "boom": _spec("boom", _run_boom, "test", "always raises", 0.1, []),
        "fine": _spec("fine", _run_fine, "test", "always passes", 0.1, []),
    }
    REGISTRY.update(specs)
    try:
        yield list(specs)
    finally:
        for exp_id in specs:
            REGISTRY.pop(exp_id, None)


def _statuses(by_id):
    return {exp_id: results[0].status
            for exp_id, (results, _, _) in by_id.items()}


class TestWatchdog:
    def test_hung_experiment_times_out_others_complete(self, synthetic_specs):
        by_id = _run_parallel(["fine", "hang", "boom"], Scale.SMOKE, 42,
                              workers=3, timeout_s=2.0)
        assert _statuses(by_id) == {"fine": "ok", "hang": "timeout",
                                    "boom": "failed"}
        hang = by_id["hang"][0][0]
        assert "--timeout 2.0s" in hang.error
        assert "worker terminated" in hang.error

    def test_remote_traceback_captured(self, synthetic_specs):
        by_id = _run_parallel(["boom"], Scale.SMOKE, 42, workers=1)
        result = by_id["boom"][0][0]
        assert result.status == "failed"
        assert "RuntimeError: deliberate kaboom" in result.error
        assert "_run_boom" in result.error      # real remote stack frames

    def test_ok_results_record_one_attempt(self, synthetic_specs):
        by_id = _run_parallel(["fine"], Scale.SMOKE, 42, workers=1)
        result = by_id["fine"][0][0]
        assert result.status == "ok"
        assert result.attempts == 1
        assert result.metrics["answer"] == 42.0


class TestRetries:
    def test_persistent_failure_is_quarantined(self, synthetic_specs):
        by_id = _run_parallel(["boom"], Scale.SMOKE, 42, workers=1,
                              retries=2, backoff_s=0.01)
        result = by_id["boom"][0][0]
        assert result.status == "quarantined"
        assert result.attempts == 3
        assert "deliberate kaboom" in result.error

    def test_no_retries_means_plain_failed_status(self, synthetic_specs):
        by_id = _run_parallel(["boom"], Scale.SMOKE, 42, workers=1,
                              retries=0)
        assert by_id["boom"][0][0].status == "failed"


class TestRunAllDegradation:
    def test_serial_run_survives_a_raising_experiment(self, synthetic_specs):
        results = run_all(Scale.SMOKE, ids=["fine", "boom"])
        assert [r.status for r in results] == ["ok", "failed"]
        assert "deliberate kaboom" in results[1].error

    def test_timeout_forces_process_isolation_even_serial(
            self, synthetic_specs):
        results = run_all(Scale.SMOKE, ids=["fine", "hang"],
                          timeout_s=2.0)
        assert [r.status for r in results] == ["ok", "timeout"]

    def test_results_keep_registry_order(self, synthetic_specs):
        results = run_all(Scale.SMOKE, ids=["boom", "fine"], workers=2)
        assert [r.experiment for r in results] == ["boom", "fine"]


class TestExitCodes:
    def _result(self, status):
        r = ExperimentResult(experiment="x", title="x")
        r.status = status
        return r

    def test_all_ok_is_zero(self):
        assert campaign_exit_code([self._result("ok")]) == EXIT_OK

    def test_partial_is_four(self):
        assert campaign_exit_code(
            [self._result("ok"), self._result("timeout")]) == EXIT_PARTIAL

    def test_total_failure_is_one(self):
        assert campaign_exit_code(
            [self._result("failed"), self._result("quarantined")]) == \
            EXIT_ALL_FAILED
        assert campaign_exit_code([]) == EXIT_ALL_FAILED


class TestBenchPartial:
    """A crashing suite member yields a partial artifact, not nothing."""

    @pytest.fixture
    def crashing_tables(self, monkeypatch):
        import repro.experiments.runner as runner
        real = runner.run_experiment

        def flaky(exp_id, *args, **kwargs):
            if exp_id == "tables":
                raise RuntimeError("deliberate bench kaboom")
            return real(exp_id, *args, **kwargs)

        monkeypatch.setattr(runner, "run_experiment", flaky)

    def test_run_suite_marks_partial_and_keeps_schema(self, crashing_tables):
        from repro.telemetry.bench import run_suite, validate_bench
        doc = run_suite("smoke", Scale.SMOKE)
        assert doc["completed"] is False
        entry = doc["experiments"]["tables"]
        assert "deliberate bench kaboom" in entry["error"]
        assert entry["requests"] == 0 and entry["metrics"] == {}
        assert doc["experiments"]["fig1"]["requests"] > 0
        assert validate_bench(doc) == []

    def test_documents_without_completed_stay_valid(self):
        from repro.telemetry.bench import run_suite, validate_bench
        doc = run_suite("smoke", Scale.SMOKE)
        assert doc["completed"] is True
        del doc["completed"]     # documents from before the flag existed
        assert validate_bench(doc) == []

    def test_crashed_entries_never_gate_as_regressions(self, crashing_tables):
        from repro.telemetry.bench import diff_bench, run_suite
        partial = run_suite("smoke", Scale.SMOKE)
        baseline = {"experiments": {"tables": {
            "requests": 1000, "metrics": {"tables.rows": 12.0}}}}
        assert diff_bench(baseline, partial) == []

    def test_bench_cli_writes_partial_and_exits_4(self, crashing_tables,
                                                  tmp_path, capsys):
        from repro.tools.bench_cli import EXIT_PARTIAL as BENCH_PARTIAL
        from repro.tools.bench_cli import main
        code = main(["--suite", "smoke", "--out", str(tmp_path),
                     "--date", "2026-08-06"])
        assert code == BENCH_PARTIAL == 4
        doc = json.loads((tmp_path / "BENCH_2026-08-06.json").read_text())
        assert doc["completed"] is False
        err = capsys.readouterr().err
        assert "PARTIAL RUN" in err and "tables" in err

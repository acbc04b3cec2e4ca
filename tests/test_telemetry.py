"""Sim-time telemetry: sampler, timelines, manifests, exports."""

import io
import json

import pytest

from repro import registry
from repro.common.errors import ConfigError
from repro.experiments.common import Scale
from repro.experiments.runner import run_all, run_experiment
from repro.engine.stats import StatsRegistry
from repro.telemetry import (
    NULL_TELEMETRY,
    TelemetrySampler,
    Timeline,
    render_timeline,
    run_manifest,
    save_chrome_counters,
    save_timelines_csv,
    session,
    sparkline,
    to_chrome_counters,
    validate_manifest,
)
from repro.telemetry.sampler import current

INTERVAL = {"interval_ps": 50_000_000}  # 50 simulated us


class TestNullTelemetry:
    def test_disabled_and_noop(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.attach(object())
        NULL_TELEMETRY.tick(123)
        NULL_TELEMETRY.finalize()

    def test_current_defaults_to_null(self):
        assert current() is NULL_TELEMETRY

    def test_class_default_on_every_target(self):
        assert registry.build("vans").hooks.ticks == ()
        assert registry.build("pmep").hooks.ticks == ()


class TestSamplerBasics:
    def test_session_attaches_registry_builds(self):
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            system = registry.build("vans")
            assert system.hooks.ticks == (sampler,)
            for i in range(50):
                system.read(i * 64, i * 100)
        assert len(sampler.timeline) > 0
        assert "imc.reads" in sampler.timeline.series
        counter = sampler.timeline.series["imc.reads"]
        assert counter.kind == "counter"
        assert counter.final == 50

    def test_sample_times_monotone_despite_out_of_order_completions(self):
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            system = registry.build("vans")
            for i in range(100):
                system.read(i * 64, i * 100)
        times = sampler.timeline.sample_times_ps
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_run_clock_folds_across_fresh_systems(self):
        """Sweep harnesses rebuild per point; timelines concatenate."""
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            first = registry.build("vans")
            for i in range(40):
                first.read(i * 64, i * 100)
            mid = sampler.timeline.end_ps if len(sampler.timeline) else 0
            second = registry.build("vans")  # clock restarts at 0
            for i in range(40):
                second.read(i * 64, i * 100)
        times = sampler.timeline.sample_times_ps
        assert times == sorted(times)
        assert times[-1] > mid  # second domain extended the run clock

    def test_finalize_samples_short_runs(self):
        """A run shorter than one interval still produces a timeline."""
        sampler = TelemetrySampler()  # default 100us interval
        with session(sampler):
            system = registry.build("vans")
            system.read(0, 0)
        assert len(sampler.timeline) == 1

    def test_gauge_error_recorded_not_fatal(self):
        sampler = TelemetrySampler(interval_ps=1_000)

        class Broken:
            def __init__(self):
                self.stats = StatsRegistry()
                self.stats.counter("ok").add(5)
                self.stats.gauge("bad", lambda: 1 // 0)

        sampler.attach(Broken())
        sampler.tick(2_000)
        sampler.finalize()
        assert sampler.timeline.errors == ["bad"]
        assert sampler.timeline.series["ok"].final == 5

    @pytest.mark.parametrize("name",
                             registry.target_names(systems_only=True))
    def test_series_paths_are_snapshot_keys(self, name):
        """Telemetry and the snapshot name every signal alike."""
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            system = registry.build(name)
            now = 0
            for i in range(40):
                now = system.read(i * 4096, now)
                now = system.write(i * 64, now)
                if i % 8 == 7:
                    now = system.fence(now)
        snapshot = system.instrument_snapshot()
        missing = [path for path in sampler.timeline.series
                   if path not in snapshot]
        assert missing == []

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigError):
            TelemetrySampler(interval_ps=0)

    def test_histograms_become_count_and_stats(self):
        sampler = TelemetrySampler(interval_ps=1_000)

        class WithHist:
            def __init__(self):
                self.stats = StatsRegistry()
                h = self.stats.histogram("lat")
                for v in (10, 20, 30):
                    h.record(v)

        sampler.attach(WithHist())
        sampler.tick(2_000)
        timeline = sampler.timeline
        assert timeline.series["lat.count"].kind == "counter"
        assert timeline.series["lat.count"].final == 3
        assert timeline.series["lat.mean"].kind == "stat"
        assert timeline.series["lat.mean"].final == 20


class TestTimelineSerialization:
    def _sampled(self):
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            system = registry.build("vans")
            for i in range(30):
                system.read(i * 64, i * 100)
        return sampler.timeline

    def test_round_trip(self):
        timeline = self._sampled()
        doc = json.loads(json.dumps(timeline.as_dict()))
        back = Timeline.from_dict(doc)
        assert back.as_dict() == timeline.as_dict()

    def test_series_views(self):
        timeline = self._sampled()
        series = timeline.series["imc.reads"]
        deltas = series.deltas()
        assert sum(deltas) == series.final
        assert len(series.rates_per_s()) == len(series)
        assert "imc.reads" in timeline.paths("counter")
        assert timeline.paths("gauge")  # station gauges present


class TestDeterminism:
    def test_serial_vs_workers_timelines_bit_identical(self):
        ids = ["fig1", "tables"]
        serial = run_all(Scale.SMOKE, ids=ids, telemetry=INTERVAL)
        parallel = run_all(Scale.SMOKE, ids=ids, workers=4,
                           telemetry=INTERVAL)
        for a, b in zip(serial, parallel):
            assert a.telemetry == b.telemetry
            assert a.telemetry["timeline"]["samples"] > 0

    def test_telemetry_has_zero_model_side_effects(self):
        """Sampling only reads: instrumentation is unchanged by it."""
        plain = run_experiment("fig1", Scale.SMOKE)
        sampled = run_experiment("fig1", Scale.SMOKE, telemetry=INTERVAL)
        for a, b in zip(plain, sampled):
            assert a.instrumentation == b.instrumentation
            assert a.metrics == b.metrics
            assert not a.telemetry and b.telemetry


class TestManifest:
    def test_round_trip_validates(self):
        manifest = run_manifest(seed=7, config={"suite": "smoke", "n": 3})
        back = json.loads(json.dumps(manifest))
        assert validate_manifest(back) == []
        assert back["seed"] == 7
        assert back["config"]["suite"] == "smoke"

    def test_config_hash_detects_tampering(self):
        manifest = run_manifest(config={"a": 1})
        manifest["config"]["a"] = 2
        assert any("config_hash" in p for p in validate_manifest(manifest))

    def test_wrong_schema_flagged(self):
        manifest = run_manifest()
        manifest["schema"] = "bogus/9"
        assert validate_manifest(manifest)


class TestExports:
    def _timelines(self):
        sampler = TelemetrySampler(interval_ps=1_000)
        with session(sampler):
            system = registry.build("vans")
            for i in range(30):
                system.read(i * 64, i * 100)
        return {"demo": sampler.timeline}

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▁▁▁"
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_timeline_mentions_series(self):
        timelines = self._timelines()
        text = render_timeline(timelines["demo"])
        assert "samples" in text
        assert "imc.reads" in text
        filtered = render_timeline(timelines["demo"], match="no-such-path")
        assert "no matching series" in filtered

    def test_csv_long_form(self):
        buf = io.StringIO()
        rows = save_timelines_csv(self._timelines(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "experiment,path,kind,t_ps,value"
        assert len(lines) == rows + 1
        assert any(line.startswith("demo,imc.reads,counter,")
                   for line in lines[1:])

    def test_chrome_counter_tracks(self):
        trace = to_chrome_counters(self._timelines())
        phases = {e.get("ph") for e in trace["traceEvents"]}
        assert "C" in phases and "M" in phases
        counter = next(e for e in trace["traceEvents"] if e.get("ph") == "C")
        assert "value" in counter["args"]
        buf = io.StringIO()
        events = save_chrome_counters(self._timelines(), buf)
        assert events == len(json.loads(buf.getvalue())["traceEvents"])

"""The per-request flight recorder: lifecycle, sampling, attribution,
breakdown reporting, Chrome export, and end-to-end wiring."""

import json

import pytest
from hypothesis import given, strategies as st

from repro import registry
from repro.common.errors import ConfigError
from repro.engine.request import Op, Request
from repro.flight import (
    MODES,
    NULL_FLIGHT,
    OTHER,
    FlightRecord,
    FlightRecorder,
    LatencyBreakdown,
    SpanEvent,
    attribute,
    breakdown_by_size,
    breakdowns,
    current,
    save_chrome_trace,
    session,
    to_chrome_trace,
)
from repro.vans import VansSystem


def make_record(spans, issue=0, complete=100, op="read"):
    record = FlightRecord(op=op, addr=0, size=64, issue_ps=issue,
                          complete_ps=complete)
    for station, start, end in spans:
        record.spans.append(SpanEvent(station, "service", start, end, None))
    return record


class TestNullFlight:
    def test_everything_is_a_noop(self):
        NULL_FLIGHT.begin("read", 0)
        NULL_FLIGHT.span("x", 0, 10)
        NULL_FLIGHT.instant("x", "mark", 5)
        NULL_FLIGHT.end(10)
        assert NULL_FLIGHT.last is None

    def test_guard_attributes_are_false(self):
        assert NULL_FLIGHT.enabled is False
        assert NULL_FLIGHT.active is False


class TestRecorderLifecycle:
    def test_begin_span_end(self):
        fl = FlightRecorder()
        fl.begin("read", 0x40, issue_ps=100, req_id=7)
        assert fl.active
        fl.span("imc.rpq", 100, 150, phase="wait")
        fl.instant("dimm.lsq", "combine", 120, block="0x0")
        fl.end(900)
        assert not fl.active
        record = fl.last
        assert record.op == "read"
        assert record.req_id == 7
        assert record.latency_ps == 800
        assert [s.station for s in record.spans] == ["imc.rpq"]
        assert record.spans[0].duration_ps == 50
        assert record.instants[0].detail == {"block": "0x0"}

    def test_nested_begins_fold_into_outermost(self):
        fl = FlightRecorder()
        fl.begin("read", 0, issue_ps=0)
        fl.begin("read", 0, issue_ps=10)  # inner system forwards
        fl.span("inner", 10, 20)
        fl.end(20)
        assert fl.active  # outer request still open
        fl.end(30)
        assert fl.seen == 1
        assert len(fl.records) == 1
        assert fl.records[0].complete_ps == 30
        assert [s.station for s in fl.records[0].spans] == ["inner"]

    def test_spans_outside_request_are_dropped(self):
        fl = FlightRecorder()
        fl.span("imc.rpq", 0, 10)
        assert fl.records == []

    def test_zero_length_spans_are_dropped(self):
        fl = FlightRecorder()
        fl.begin("read", 0)
        fl.span("imc.rpq", 50, 50)
        fl.span("imc.rpq", 60, 40)
        fl.end(100)
        assert fl.last.spans == []

    def test_end_without_begin_is_harmless(self):
        fl = FlightRecorder()
        fl.end(10)
        assert fl.records == []

    def test_invalid_configs_raise(self):
        with pytest.raises(ConfigError):
            FlightRecorder(mode="sometimes")
        with pytest.raises(ConfigError):
            FlightRecorder(mode="every", every=0)
        with pytest.raises(ConfigError):
            FlightRecorder(mode="reservoir", capacity=0)
        assert set(MODES) == {"all", "every", "reservoir"}


class TestSampling:
    def run_requests(self, fl, n):
        for i in range(n):
            fl.begin("read", i * 64, issue_ps=i * 100)
            fl.span("media", i * 100, i * 100 + 50)
            fl.end(i * 100 + 90)

    def test_every_keeps_one_in_n(self):
        fl = FlightRecorder(mode="every", every=4)
        self.run_requests(fl, 10)
        assert fl.seen == 10
        assert len(fl.records) == 3  # requests 0, 4, 8
        assert [r.addr for r in fl.records] == [0, 4 * 64, 8 * 64]
        assert fl.dropped == 7

    def test_unsampled_requests_record_no_spans(self):
        fl = FlightRecorder(mode="every", every=2)
        fl.begin("read", 0)       # kept
        assert fl.active
        fl.end(10)
        fl.begin("read", 64)      # skipped
        assert not fl.active
        fl.span("media", 0, 50)   # must be dropped silently
        fl.end(20)
        assert len(fl.records) == 1

    def test_reservoir_bounds_and_determinism(self):
        a = FlightRecorder(mode="reservoir", capacity=8, seed=3)
        b = FlightRecorder(mode="reservoir", capacity=8, seed=3)
        self.run_requests(a, 100)
        self.run_requests(b, 100)
        assert len(a.records) == 8
        assert a.seen == 100
        assert [r.addr for r in a.records] == [r.addr for r in b.records]

    def test_reservoir_different_seed_differs(self):
        a = FlightRecorder(mode="reservoir", capacity=8, seed=0)
        b = FlightRecorder(mode="reservoir", capacity=8, seed=99)
        self.run_requests(a, 200)
        self.run_requests(b, 200)
        assert [r.addr for r in a.records] != [r.addr for r in b.records]

    def test_sampling_summary(self):
        fl = FlightRecorder(mode="every", every=2)
        self.run_requests(fl, 5)
        summary = fl.sampling_summary()
        assert summary["mode"] == "every"
        assert summary["seen"] == 5
        assert summary["kept"] == 3
        assert summary["dropped"] == 2


class TestAttribution:
    def test_single_full_cover(self):
        record = make_record([("media", 0, 100)])
        assert attribute(record) == {"media": 100}

    def test_uncovered_time_goes_to_other(self):
        record = make_record([("media", 20, 60)])
        assert attribute(record) == {"media": 40, OTHER: 60}

    def test_innermost_span_wins(self):
        record = make_record([("dimm.engine", 0, 100),
                              ("dimm.ait", 30, 50)])
        assert attribute(record) == {"dimm.engine": 80, "dimm.ait": 20}

    def test_three_level_nesting(self):
        record = make_record([("cpu", 0, 100),
                              ("dimm", 10, 90),
                              ("media", 40, 60)])
        assert attribute(record) == {"cpu": 20, "dimm": 60, "media": 20}

    def test_spans_clipped_to_request_window(self):
        record = make_record([("media", -50, 30), ("drain", 80, 500)],
                             issue=0, complete=100)
        assert attribute(record) == {"media": 30, OTHER: 50, "drain": 20}

    def test_empty_window_returns_nothing(self):
        record = make_record([("media", 0, 10)], issue=100, complete=100)
        assert attribute(record) == {}

    def test_no_spans_is_all_other(self):
        record = make_record([])
        assert attribute(record) == {OTHER: 100}

    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                  st.integers(-50, 250), st.integers(-50, 250)),
        max_size=12),
        st.integers(1, 200))
    def test_shares_always_sum_to_latency(self, raw_spans, latency):
        """The invariant: attribution is an exact partition of the
        request window, whatever the span soup looks like."""
        record = make_record([(s, min(a, b), max(a, b))
                              for s, a, b in raw_spans],
                             issue=0, complete=latency)
        shares = attribute(record)
        assert sum(shares.values()) == latency
        assert all(v > 0 for v in shares.values())


class TestLatencyBreakdown:
    def records(self):
        return [make_record([("media", 0, 60), ("imc.rpq", 60, 80)],
                            complete=100),
                make_record([("media", 100, 180)], issue=100, complete=200)]

    def test_stage_means_sum_to_total_mean(self):
        breakdown = LatencyBreakdown.from_records(self.records())
        assert breakdown.count == 2
        assert breakdown.mean_ps == 100.0
        assert sum(s.mean_ps for s in breakdown.stages) == \
            pytest.approx(breakdown.mean_ps)
        assert sum(s.share for s in breakdown.stages) == pytest.approx(1.0)

    def test_bottleneck_prefers_named_stage(self):
        breakdown = LatencyBreakdown.from_records(self.records())
        assert breakdown.bottleneck == "media"

    def test_other_can_be_bottleneck_only_when_alone(self):
        breakdown = LatencyBreakdown.from_records([make_record([])])
        assert breakdown.bottleneck == OTHER

    def test_render_marks_bottleneck(self):
        text = LatencyBreakdown.from_records(self.records()).render()
        assert "media" in text and "<- bottleneck" in text
        assert "p99" in text

    def test_as_dict_is_json_safe(self):
        payload = LatencyBreakdown.from_records(self.records()).as_dict()
        json.dumps(payload)
        assert payload["bottleneck"] == "media"
        assert "media" in payload["stages"]

    def test_empty_records(self):
        breakdown = LatencyBreakdown.from_records([])
        assert breakdown.count == 0
        assert "(no records)" in breakdown.render()

    def test_breakdowns_split_by_op(self):
        records = self.records() + [make_record([("imc.wpq", 0, 50)],
                                                complete=50, op="write_nt")]
        by_op = breakdowns(records)
        assert set(by_op) == {"read", "write_nt"}
        assert by_op["write_nt"].bottleneck == "imc.wpq"

    def test_breakdown_by_size_keys(self):
        records = self.records()
        records[0].size = 256
        by_size = breakdown_by_size(records)
        assert set(by_size) == {("read", 64), ("read", 256)}


class TestSession:
    def test_current_defaults_to_null(self):
        assert current() is NULL_FLIGHT

    def test_session_installs_and_restores(self):
        fl = FlightRecorder()
        with session(fl) as active:
            assert active is fl
            assert current() is fl
        assert current() is NULL_FLIGHT

    def test_registry_attaches_session_recorder(self):
        fl = FlightRecorder()
        with session(fl):
            system = registry.build("vans")
        assert system.flight is fl

    def test_plain_construction_stays_null(self):
        system = VansSystem()
        assert system.flight is NULL_FLIGHT


class TestVansWiring:
    def drive(self, mode="all", reads=64, writes=32, **kwargs):
        fl = FlightRecorder(mode=mode, **kwargs)
        with session(fl):
            system = registry.build("vans")
            now = 0
            for i in range(reads):
                now = system.read((i * 4096) % (1 << 22), now)
            for i in range(writes):
                now = system.write((i * 64) % 4096, now)
            system.fence(now)
        return fl

    def test_read_breakdown_sums_to_end_to_end(self):
        """Acceptance criterion: per-stage means sum (within float
        rounding) to the end-to-end mean for vans 64B reads — and
        per-record shares sum *exactly*."""
        fl = self.drive()
        reads = [r for r in fl.records if r.op == "read"]
        assert len(reads) == 64
        for record in reads:
            assert sum(attribute(record).values()) == record.latency_ps
        breakdown = breakdowns(fl.records)["read"]
        assert sum(s.mean_ps for s in breakdown.stages) == \
            pytest.approx(breakdown.mean_ps, rel=1e-12)

    def test_read_path_stations_present(self):
        fl = self.drive()
        stations = {s.station for r in fl.records if r.op == "read"
                    for s in r.spans}
        for expected in ("cpu.frontend", "ddrt.link", "dimm.lsq",
                         "dimm.ait", "media"):
            assert expected in stations, stations

    def test_uninstrumented_time_is_negligible(self):
        """Full station coverage: 'other' must be a rounding sliver, not
        a stage."""
        breakdown = breakdowns(self.drive().records)["read"]
        other = next((s for s in breakdown.stages if s.station == OTHER),
                     None)
        assert other is None or other.share < 0.01

    def test_write_records_end_at_accept(self):
        fl = self.drive()
        writes = [r for r in fl.records if r.op == "write"]
        assert writes
        for record in writes:
            assert record.complete_ps >= record.issue_ps

    def test_fence_records_cover_drain(self):
        fl = self.drive()
        fences = [r for r in fl.records if r.op == "fence"]
        assert len(fences) == 1
        stations = {s.station for s in fences[0].spans}
        assert "imc.wpq" in stations or "dimm.lsq" in stations

    def test_sampled_run_is_bit_identical_to_unsampled(self):
        """Recording must never perturb simulated time."""
        def end_time(fl):
            with session(fl):
                system = registry.build("vans")
                now = 0
                for i in range(100):
                    now = system.read((i * 4096) % (1 << 20), now)
            return now

        bare = end_time(None)
        assert end_time(FlightRecorder()) == bare
        assert end_time(FlightRecorder(mode="every", every=8)) == bare
        assert end_time(FlightRecorder(mode="reservoir", capacity=4)) == bare


class TestSubmitAttachment:
    def test_submit_hangs_record_on_request(self):
        fl = FlightRecorder()
        with session(fl):
            system = registry.build("vans")
        request = system.submit(Request(addr=0x1000, op=Op.READ))
        assert request.flight is not None
        assert request.flight.req_id == request.req_id
        assert request.flight.complete_ps == request.complete_ps

    def test_submit_without_recorder_leaves_none(self):
        request = VansSystem().submit(Request(addr=0x1000, op=Op.READ))
        assert request.flight is None

    def test_submit_unsampled_request_leaves_none(self):
        fl = FlightRecorder(mode="every", every=2)
        with session(fl):
            system = registry.build("vans")
        first = system.submit(Request(addr=0, op=Op.READ))
        second = system.submit(Request(addr=64, op=Op.READ))
        assert first.flight is not None
        assert second.flight is None


class TestChromeExport:
    def trace(self):
        fl = FlightRecorder()
        with session(fl):
            system = registry.build("vans")
            now = 0
            for i in range(8):
                now = system.read(i * 4096, now)
        return to_chrome_trace(fl.records, extra_metadata={"target": "vans"})

    def test_schema(self):
        trace = self.trace()
        assert trace["displayTimeUnit"] == "ns"
        assert trace["otherData"]["records"] == 8
        assert trace["otherData"]["target"] == "vans"
        events = trace["traceEvents"]
        assert events, "no events exported"
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert event["pid"] == 0
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
                assert isinstance(event["tid"], int)
                assert ":" in event["name"]
                assert event["args"]["end_ps"] >= event["args"]["start_ps"]
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_station_lanes_are_named_and_sorted(self):
        trace = self.trace()
        names = {e["args"]["name"]: e["tid"]
                 for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "media" in names
        ordered = sorted(names, key=lambda n: names[n])
        assert ordered == sorted(names)

    def test_timestamps_are_microseconds(self):
        trace = self.trace()
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == span["args"]["start_ps"] / 1e6

    def test_save_to_path_and_file(self, tmp_path):
        fl = FlightRecorder()
        fl.begin("read", 0)
        fl.span("media", 0, 50)
        fl.end(100)
        path = tmp_path / "trace.json"
        count = save_chrome_trace(fl.records, path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        import io
        buffer = io.StringIO()
        assert save_chrome_trace(fl.records, buffer) == count

    def test_empty_records_still_valid(self):
        trace = to_chrome_trace([])
        json.dumps(trace)
        assert trace["otherData"]["records"] == 0


class TestRunnerIntegration:
    def test_run_experiment_attaches_flight(self):
        from repro.experiments.runner import make_flight_recorder, run_experiment

        recorder = make_flight_recorder({"mode": "every", "every": 16})
        results = run_experiment("fig1", flight=recorder)
        assert results
        for result in results:
            assert result.flight["sampling"]["mode"] == "every"
            assert result.flight["sampling"]["kept"] > 0
            assert "read" in result.flight["breakdowns"]
        assert recorder.records

    def test_flight_survives_json_export(self):
        from repro.experiments.export import result_to_dict
        from repro.experiments.runner import make_flight_recorder, run_experiment

        recorder = make_flight_recorder({"mode": "every", "every": 16})
        result = run_experiment("fig1", flight=recorder)[0]
        payload = result_to_dict(result)
        json.dumps(payload)
        assert payload["flight"]["breakdowns"]["read"]["count"] > 0

    def test_no_flight_by_default(self):
        from repro.experiments.runner import make_flight_recorder, run_experiment

        assert make_flight_recorder(None) is None
        result = run_experiment("fig1")[0]
        assert result.flight == {}


class TestFlightCli:
    def test_pattern_run_with_export(self, tmp_path, capsys):
        from repro.tools.flight_cli import main

        out = str(tmp_path / "trace.json")
        assert main(["vans", "--pattern", "chase", "--ops", "100",
                     "--region", "65536", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "latency breakdown [read]" in stdout
        assert "bottleneck" in stdout
        trace = json.loads(open(out).read())
        assert trace["otherData"]["target"].startswith("vans")
        assert trace["traceEvents"]

    def test_sample_and_reservoir_conflict(self, capsys):
        from repro.tools.flight_cli import main

        assert main(["vans", "--sample", "4", "--reservoir", "10"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, capsys):
        from repro.tools.flight_cli import main

        assert main(["nope"]) == 2

    def test_reservoir_run(self, capsys):
        from repro.tools.flight_cli import main

        assert main(["vans", "--ops", "200", "--reservoir", "16"]) == 0
        out = capsys.readouterr().out
        assert "16/200 requests recorded" in out

    def test_trace_replay_with_flight(self, tmp_path, capsys):
        from repro.tools.trace_cli import main as trace_main

        path = str(tmp_path / "x.trace")
        assert trace_main(["capture", path, "--pattern", "seq-write",
                           "--ops", "64"]) == 0
        assert trace_main(["replay", path, "--target", "vans",
                           "--flight"]) == 0
        out = capsys.readouterr().out
        assert "latency breakdown [write]" in out

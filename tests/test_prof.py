"""Host-side kernel profiler (``repro.prof``) and engine health
introspection: null-object cost model, frame accounting, instrument /
uninstrument lifecycle, bit-identity of profiled runs, kernel_stats,
export round-trips, and regression localization via ``repro-prof diff``.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.engine.event import Engine, aggregate_kernel_stats
from repro.engine.kernelbench import CASES
from repro.prof import (
    NULL_PROF,
    PROFILE_SCHEMA,
    Profiler,
    current,
    diff_profiles,
    format_movers,
    parse_collapsed,
    profile_from_dict,
    session,
    to_chrome,
    to_collapsed,
    to_speedscope,
    validate_profile,
)
from repro.vans.system import VansSystem


def _busy_ns(duration_ns: int) -> None:
    end = perf_counter_ns() + duration_ns
    while perf_counter_ns() < end:
        pass


class TestNullProfiler:
    def test_null_prof_is_disabled_and_inert(self):
        assert NULL_PROF.enabled is False
        fn = lambda: 7  # noqa: E731
        assert NULL_PROF.wrap("k", fn) is fn
        with NULL_PROF.frame("k"):
            pass
        NULL_PROF.instrument(object())
        NULL_PROF.uninstrument_all()

    def test_targets_carry_null_prof_class_side(self):
        system = VansSystem()
        assert system.prof is NULL_PROF
        assert "prof" not in system.__dict__

    def test_no_session_means_null_current(self):
        assert current() is NULL_PROF

    def test_unprofiled_engine_keeps_fast_dispatch(self):
        engine = Engine()
        assert engine._fast_dispatch is True
        assert engine.profiler is None

    def test_unprofiled_build_binds_nothing_instance_side(self):
        """registry.build without a prof session installs no wrappers:
        every attribution point resolves to its class method."""
        system = registry.build("vans")
        try:
            for _key, obj, name in system.profile_points():
                assert name not in getattr(obj, "__dict__", {})
        finally:
            registry.release(system)


class TestFrameAccounting:
    def test_self_excludes_children_cum_includes_them(self):
        prof = Profiler()
        with prof.frame("parent"):
            _busy_ns(2_000_000)
            with prof.frame("child"):
                _busy_ns(2_000_000)
        doc = prof.to_dict()
        parent = doc["frames"]["parent"]
        child = doc["frames"]["child"]
        assert parent["calls"] == 1 and child["calls"] == 1
        assert parent["cum_ns"] >= parent["self_ns"] + child["cum_ns"]
        assert parent["self_ns"] < parent["cum_ns"]
        # total self time equals the root's cumulative time
        assert doc["total_self_ns"] == pytest.approx(
            parent["cum_ns"], rel=0.05)

    def test_recursion_counts_cum_once(self):
        prof = Profiler()

        def recurse(depth: int) -> None:
            with prof.frame("r"):
                _busy_ns(500_000)
                if depth:
                    recurse(depth - 1)

        recurse(3)
        frame = prof.to_dict()["frames"]["r"]
        assert frame["calls"] == 4
        # cum counted only at the outermost frame: ~4x one slice, not
        # the ~10x a naive sum over nested frames would give
        assert frame["cum_ns"] < 8 * 500_000
        assert frame["self_ns"] == pytest.approx(frame["cum_ns"], rel=0.5)

    def test_stack_paths_recorded(self):
        prof = Profiler()
        with prof.frame("a"):
            with prof.frame("b"):
                pass
        stacks = {tuple(e["stack"]) for e in prof.to_dict()["stacks"]}
        assert ("a",) in stacks and ("a", "b") in stacks

    def test_to_dict_is_deterministic_and_valid(self):
        prof = Profiler()
        with prof.frame("z"):
            with prof.frame("a"):
                pass
        doc = prof.to_dict(wall_ns=123, meta={"workload": "t"})
        assert doc["schema"] == PROFILE_SCHEMA
        assert list(doc["frames"]) == sorted(doc["frames"])
        assert validate_profile(doc) == []
        assert profile_from_dict(json.loads(json.dumps(doc))) == \
            profile_from_dict(doc)


class TestInstrumentLifecycle:
    def test_session_build_wraps_and_restores(self):
        prof = Profiler()
        with session(prof):
            assert current() is prof
            system = registry.build("vans")
            wrapped = system.__dict__.get("read")
            assert getattr(wrapped, "__repro_prof__", False)
            assert wrapped.__repro_prof_key__ == "vans.read"
            assert system.__dict__.get("_prof_wrapped") is True
            now = system.read(0x2000, 0)
            assert now > 0
        # session exit uninstruments: wrapper deleted, marker gone
        assert "read" not in system.__dict__
        assert "_prof_wrapped" not in system.__dict__
        assert current() is NULL_PROF
        registry.release(system)
        assert prof.to_dict()["frames"]["vans.read"]["calls"] == 1

    def test_release_strips_wrappers_before_parking(self):
        """A warm-cached system must never carry another session's
        profiling wrappers."""
        prof = Profiler()
        with session(prof):
            system = registry.build("vans")
            registry.release(system)     # released inside the session
        for _key, obj, name in system.profile_points():
            assert name not in getattr(obj, "__dict__", {})

    def test_slotted_stations_are_skipped(self):
        prof = Profiler()
        system = VansSystem()
        prof.instrument(system)
        try:
            # instrument never raises on slotted owners and wraps at
            # least the composite surfaces
            keys = {r[2].__repro_prof_key__ for r in prof._wrapped}
            assert "vans.read" in keys and "media.access" in keys
        finally:
            prof.uninstrument_all()

    def test_double_instrument_is_idempotent(self):
        prof = Profiler()
        system = VansSystem()
        prof.instrument(system)
        before = len(prof._wrapped)
        prof.instrument(system)
        assert len(prof._wrapped) == before
        prof.uninstrument_all()
        assert prof._wrapped == []


class TestBitIdentity:
    def test_profiled_run_is_bit_identical(self):
        """Profiling is host-side observation only: simulated time from
        a profiled run equals the unprofiled run exactly."""
        def end_time(prof):
            with session(prof):
                system = registry.build("vans")
                now = 0
                for i in range(100):
                    now = system.read((i * 4096) % (1 << 20), now)
            registry.release(system)
            return now

        assert end_time(None) == end_time(Profiler())

    def test_fig1_payload_identical_with_profiler(self):
        """fig1 with flight + telemetry attached: rows, metrics, flight
        JSON, and telemetry timeline all bit-identical under the
        profiler (wall_s excluded by definition)."""
        from repro.experiments.exec import run_experiment
        from repro.flight import FlightRecorder

        def payload(prof):
            results = run_experiment(
                "fig1", flight=FlightRecorder(mode="every", every=16),
                telemetry={"interval_ps": 1_000_000}, prof=prof)
            return json.dumps(
                [{"rows": [list(r) for r in result.rows],
                  "metrics": result.metrics,
                  "flight": result.flight,
                  "telemetry": result.telemetry}
                 for result in results],
                sort_keys=True, default=str)

        assert payload(None) == payload(Profiler())


class TestEngineProfiledDispatch:
    def test_profiled_dispatch_matches_unprofiled(self):
        for case, driver in CASES.items():
            bare = Engine()
            checksum = driver(bare, 4000, seed=7)

            prof = Profiler()
            engine = Engine()
            prof.attach_engine(engine)
            assert engine._fast_dispatch is False
            profiled = driver(engine, 4000, seed=7)
            prof.uninstrument_all()
            assert engine.profiler is None

            assert profiled == checksum, case
            assert engine.processed_events == bare.processed_events
            frames = prof.to_dict()["frames"]
            assert any(k.startswith("handler.") for k in frames)
            assert sum(f["calls"] for f in frames.values()) == \
                engine.processed_events

    def test_handler_keys_use_qualnames(self):
        prof = Profiler()
        engine = Engine()
        prof.attach_engine(engine)
        CASES["pointer_chase"](engine, 500, 0)
        prof.uninstrument_all()
        assert "handler._drive_pointer_chase.completion" in \
            prof.to_dict()["frames"]


class TestKernelStats:
    def test_ddrt_burst_stats(self):
        engine = Engine()
        CASES["ddrt_burst"](engine, 20_000, 0)
        stats = engine.kernel_stats()
        assert stats["events"] == engine.processed_events
        assert stats["scheduled"] >= stats["events"]
        assert stats["pool_hits"] + stats["pool_misses"] == \
            stats["scheduled"]
        assert 0.0 <= stats["pool_hit_rate"] <= 1.0
        # steady-state scheduling reuses pooled events heavily
        assert stats["pool_hit_rate"] > 0.5
        assert stats["batch_hist"], "burst workload must batch"
        assert sum(stats["batch_hist"].values()) > 0

    def test_far_horizon_migrates(self):
        engine = Engine()
        CASES["far_horizon"](engine, 20_000, 0)
        assert engine.kernel_stats()["far_migrations"] > 0

    def test_cancel_heavy_compacts(self):
        engine = Engine()
        CASES["cancel_heavy"](engine, 20_000, 0)
        stats = engine.kernel_stats()
        assert stats["cancelled_pending"] == 0  # drained by run()
        assert stats["compactions"] >= 1
        assert stats["compacted_entries"] > 0

    def test_occupancy_shape(self):
        engine = Engine()
        engine.schedule(100, lambda: None)
        engine.schedule(10**9, lambda: None)
        stats = engine.kernel_stats()
        assert stats["pending"] == 2
        assert stats["far_events"] >= 1
        assert stats["buckets"] >= 1

    def test_aggregate_sums_engines(self):
        base = aggregate_kernel_stats()
        a, b = Engine(), Engine()
        CASES["pointer_chase"](a, 1000, 0)
        CASES["pointer_chase"](b, 1000, 0)
        agg = aggregate_kernel_stats()
        assert agg["engines"] >= base["engines"] + 2
        assert agg["events"] >= base["events"] + 2000

    def test_publish_kernel_gauges(self):
        from repro.instrument import InstrumentBus

        engine = Engine()
        CASES["ddrt_burst"](engine, 2000, 0)
        bus = InstrumentBus()
        engine.publish_kernel_gauges(bus)
        snap = bus.snapshot()
        assert snap["kernel.events"] == engine.processed_events
        assert "kernel.pool_hit_rate" in snap

    def test_kernelbench_records_stats(self):
        from repro.engine.kernelbench import run_kernel_bench

        results = run_kernel_bench(nevents=2000, seed=0, repeats=1)
        for case, entry in results.items():
            assert entry["kernel_stats"]["events"] == entry["events"], case
            assert "batch_hist" in entry["kernel_stats"]


SAFE_KEY = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"),
                           whitelist_characters="._-"),
    min_size=1, max_size=20)
COUNT = st.integers(min_value=0, max_value=2**40)


@st.composite
def profile_docs(draw):
    keys = draw(st.lists(SAFE_KEY, min_size=1, max_size=6, unique=True))
    frames = {
        key: {"calls": draw(COUNT), "self_ns": draw(COUNT),
              "cum_ns": draw(COUNT)}
        for key in keys
    }
    paths = draw(st.lists(
        st.lists(st.sampled_from(keys), min_size=1, max_size=4),
        min_size=1, max_size=6, unique_by=tuple))
    stacks = [{"stack": path, "calls": draw(COUNT),
               "self_ns": draw(COUNT)} for path in paths]
    return {
        "schema": PROFILE_SCHEMA,
        "meta": {"workload": draw(SAFE_KEY)},
        "wall_ns": draw(st.none() | COUNT),
        "total_self_ns": sum(f["self_ns"] for f in frames.values()),
        "frames": frames,
        "stacks": stacks,
    }


class TestRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(profile_docs())
    def test_profile_json_round_trip(self, doc):
        canonical = profile_from_dict(doc)
        assert validate_profile(canonical) == []
        assert profile_from_dict(
            json.loads(json.dumps(canonical))) == canonical

    @settings(max_examples=40, deadline=None)
    @given(profile_docs())
    def test_collapsed_round_trip(self, doc):
        canonical = profile_from_dict(doc)
        parsed = parse_collapsed(to_collapsed(canonical))
        want = sorted(
            (tuple(e["stack"]), e["self_ns"])
            for e in canonical["stacks"])
        got = sorted((tuple(e["stack"]), e["self_ns"]) for e in parsed)
        assert got == want

    def test_parse_collapsed_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_collapsed("a;b not-a-number\n")

    def test_speedscope_weights_align(self):
        prof = Profiler()
        with prof.frame("a"):
            with prof.frame("b"):
                _busy_ns(100_000)
        doc = prof.to_dict(wall_ns=1)
        ss = to_speedscope(doc, name="t")
        profile = ss["profiles"][0]
        assert profile["unit"] == "nanoseconds"
        assert len(profile["samples"]) == len(profile["weights"])
        nframes = len(ss["shared"]["frames"])
        assert all(idx < nframes
                   for sample in profile["samples"] for idx in sample)
        assert sum(profile["weights"]) == doc["total_self_ns"]

    def test_chrome_trace_and_merge(self):
        from repro.prof import merge_chrome

        prof = Profiler()
        with prof.frame("a"):
            _busy_ns(100_000)
        doc = prof.to_dict(wall_ns=1)
        trace = to_chrome(doc)
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in kinds and "C" in kinds and "M" in kinds
        flight = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0,
                                   "ts": 0, "dur": 1, "name": "req"}]}
        merged = merge_chrome(flight, doc)
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {0, 1}


class TestDiff:
    @staticmethod
    def _doc(frames_self_ms):
        frames = {key: {"calls": 1, "self_ns": int(ms * 1e6),
                        "cum_ns": int(ms * 1e6)}
                  for key, ms in frames_self_ms.items()}
        return {"schema": PROFILE_SCHEMA, "meta": {}, "wall_ns": None,
                "total_self_ns": sum(f["self_ns"]
                                     for f in frames.values()),
                "frames": frames, "stacks": []}

    def test_identical_profiles_report_nothing(self):
        doc = self._doc({"a": 50, "b": 50})
        assert diff_profiles(doc, doc) == []
        assert "no significant movers" in format_movers([])

    def test_uniform_machine_speedup_is_not_a_mover(self):
        a = self._doc({"a": 50, "b": 50})
        b = self._doc({"a": 100, "b": 100})   # 2x slower machine
        assert diff_profiles(a, b) == []

    def test_injected_station_slowdown_is_localized(self):
        """A 2x+ slowdown injected into one media station shows up as
        the top mover under its attribution key."""
        from repro.media.xpoint import XPointMedia

        def profile_reads(slow: bool):
            original = XPointMedia.access

            def slow_access(self, media_addr, is_write, now):
                _busy_ns(20_000)
                return original(self, media_addr, is_write, now)

            if slow:
                XPointMedia.access = slow_access
            try:
                prof = Profiler()
                system = VansSystem()
                prof.instrument(system)
                with prof.frame("workload"):
                    now = 0
                    for i in range(150):
                        now = system.read((i * 4096) % (1 << 20), now)
                prof.uninstrument_all()
                return prof.to_dict()
            finally:
                XPointMedia.access = original

        movers = diff_profiles(profile_reads(False), profile_reads(True))
        assert movers, "injected slowdown must be detected"
        assert movers[0].key == "media.access"
        assert movers[0].direction == "slower"
        assert movers[0].ratio >= 2.0
        assert "media.access" in format_movers(movers)


class TestCli:
    def test_diff_cli_same_profile_exits_zero(self, tmp_path, capsys):
        from repro.tools.prof_cli import main

        prof = Profiler()
        with prof.frame("a"):
            _busy_ns(100_000)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prof.to_dict(wall_ns=1)))
        assert main(["diff", str(path), str(path),
                     "--fail-on-movers"]) == 0
        assert "no significant movers" in capsys.readouterr().out

    def test_diff_cli_movers_exit_three(self, tmp_path):
        from repro.tools.prof_cli import main

        a = TestDiff._doc({"hot": 10, "cold": 90})
        b = TestDiff._doc({"hot": 200, "cold": 90})
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["diff", str(pa), str(pb)]) == 0
        assert main(["diff", str(pa), str(pb),
                     "--fail-on-movers"]) == 3

    def test_diff_cli_bad_input_exits_two(self, tmp_path):
        from repro.tools.prof_cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["diff", str(bad), str(bad)]) == 2
        assert main(["diff", str(tmp_path / "missing.json"),
                     str(bad)]) == 2

    def test_kernel_cli_writes_exports(self, tmp_path, capsys):
        from repro.tools.prof_cli import main

        out = tmp_path / "k.json"
        ss = tmp_path / "k.speedscope.json"
        assert main(["kernel", "pointer_chase", "--events", "2000",
                     "--json", str(out), "--speedscope", str(ss)]) == 0
        doc = profile_from_dict(json.loads(out.read_text()))
        assert "kernel.pointer_chase" in doc["frames"]
        assert json.loads(ss.read_text())["profiles"]
        assert "coverage" in capsys.readouterr().out

    def test_kernel_cli_unknown_case_exits_two(self):
        from repro.tools.prof_cli import main

        assert main(["kernel", "nope"]) == 2

    def test_run_cli_unknown_experiment_exits_two(self):
        from repro.tools.prof_cli import main

        assert main(["run", "nope"]) == 2

    def test_prof_health_unreachable_exits_two(self, capsys):
        from repro.tools.prof_cli import main

        assert main(["health", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_top_unreachable_exits_two(self, capsys):
        from repro.tools.top_cli import main

        assert main(["--once", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeKernelMetrics:
    DOC = {
        "uptime_s": 1.0, "sessions": 0, "counters": {},
        "scheduler": {"submitted": 0, "dispatched": 0, "completed": 0,
                      "rejected": 0, "dispatch_log_total": 0,
                      "queued": 0, "active": 0},
        "pool": {"workers": 1, "idle": 1, "busy": 0, "alive": 1,
                 "spawned": 1, "respawned": 0, "completed": 1,
                 "errors": 0, "timeouts": 0, "rejects": 0,
                 "warm_cache": {"hits": 1, "misses": 0, "size": 1},
                 "kernel": {"engines": 2, "events": 5000,
                            "scheduled": 5100, "pending": 0,
                            "pooled": 12, "pool_hits": 4000,
                            "pool_misses": 1100,
                            "pool_hit_rate": 0.784,
                            "far_migrations": 3, "compactions": 1,
                            "compacted_entries": 40,
                            "cancelled_pending": 0,
                            "singleton_dispatches": 900,
                            "buckets": 4, "binned_events": 0,
                            "active_remaining": 0, "far_events": 0,
                            "batch_hist": {"1": 900, "2-3": 500,
                                           "4-7": 120}}},
    }

    def test_kernel_series_render_and_parse(self):
        from repro.serve.metrics import parse_exposition, render_prometheus

        samples = parse_exposition(render_prometheus(self.DOC))
        assert samples["repro_kernel_engines"] == 2
        assert samples["repro_kernel_events_total"] == 5000
        assert samples[
            'repro_kernel_pool_events_total{outcome="hit"}'] == 4000
        assert samples[
            'repro_kernel_pool_events_total{outcome="miss"}'] == 1100
        assert samples["repro_kernel_pool_hit_ratio"] == \
            pytest.approx(0.784)
        assert samples[
            'repro_kernel_batch_dispatches_total{batch_size="2-3"}'] \
            == 500
        assert samples["repro_kernel_far_migrations_total"] == 3

    def test_live_daemon_ships_kernel_section(self):
        """Worker payloads carry the kernel aggregate; the daemon
        renders it and ``repro-prof health`` reads it (zeros for
        analytic jobs, which build no event engine)."""
        from repro.serve.client import ServeClient
        from repro.serve.server import running_daemon
        from repro.tools.prof_cli import main

        ops = [{"op": "read", "addr": 0, "count": 500, "stride": 64}]
        with running_daemon(workers=1, warm_cache=4) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="prof") as client:
                client.run_stream("vans", ops)
                doc = client.metrics()
                expo = client.metrics(format="prometheus")
            assert "kernel" in doc["pool"]
            assert "events" in doc["pool"]["kernel"]
            assert any(line.startswith("repro_kernel_events_total")
                       for line in expo.splitlines())
            assert main(["health", "--port", str(daemon.port)]) == 0

    def test_no_kernel_section_renders_cleanly(self):
        from repro.serve.metrics import parse_exposition, render_prometheus

        doc = {k: v for k, v in self.DOC.items()}
        doc["pool"] = {k: v for k, v in self.DOC["pool"].items()
                       if k != "kernel"}
        samples = parse_exposition(render_prometheus(doc))
        assert not any(k.startswith("repro_kernel_") for k in samples)

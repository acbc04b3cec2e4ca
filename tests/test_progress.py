"""Progress reporting: frame cadence, the monotone run clock, and the
byte-identity contract (a run with a reporter attached produces exactly
the payload a run without one does).
"""

from __future__ import annotations

from repro.hooks import Hooks
from repro.progress import (NULL_PROGRESS, SNAPSHOT_KEY_CAP,
                            ProgressReporter, current, session)


class FakeClock:
    """Deterministic wall clock for throttle tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_reporter(frames, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    reporter = ProgressReporter(emit=frames.append, clock=clock, **kwargs)
    return reporter, clock


class TestReporterUnit:
    def test_frames_due_on_interval_boundaries(self):
        frames = []
        reporter, _ = make_reporter(frames, interval_ps=1000,
                                    min_wall_s=0.0)
        reporter.tick(100)
        assert frames == []            # first boundary not crossed yet
        reporter.tick(1500)
        assert len(frames) == 1
        reporter.tick(1600)            # same interval: not due again
        assert len(frames) == 1
        reporter.tick(2100)
        assert len(frames) == 2
        assert frames[-1]["done_requests"] == 4

    def test_wall_clock_throttle(self):
        frames = []
        reporter, clock = make_reporter(frames, interval_ps=1000,
                                        min_wall_s=1.0)
        reporter.tick(1500)
        assert len(frames) == 1        # first emission always passes
        reporter.tick(2500)            # due, but wall clock unchanged
        assert len(frames) == 1
        clock.t = 2.0
        reporter.tick(3500)
        assert len(frames) == 2

    def test_phase_and_finalize_always_emit(self):
        frames = []
        reporter, _ = make_reporter(frames, min_wall_s=100.0)
        reporter.phase("warmup")       # bypasses the wall throttle
        reporter.finalize()
        assert len(frames) >= 2
        assert frames[0]["phase"] == "warmup"
        assert [f["frame"] for f in frames] == [1, 2]

    def test_run_clock_monotone_across_system_domains(self):
        frames = []
        reporter, _ = make_reporter(frames, interval_ps=100,
                                    min_wall_s=0.0)
        reporter.attach(object())
        reporter.tick(500)
        reporter.tick(900)
        assert reporter.sim_time_ns == 0   # 900 ps < 1 ns
        reporter.attach(object())          # fresh sim-clock domain
        reporter.tick(100)                 # folds: run clock = 900 + 100
        assert reporter._base == 900
        sims = [f["sim_time_ns"] for f in frames]
        assert sims == sorted(sims)

    def test_attach_same_system_twice_does_not_fold(self):
        frames = []
        reporter, _ = make_reporter(frames)
        system = object()
        reporter.attach(system)
        reporter.tick(500)
        reporter.attach(system)
        assert reporter._base == 0

    def test_snapshot_key_cap(self):
        class Wide:
            def instrument_snapshot(self):
                return {f"k{i:03d}": i for i in range(SNAPSHOT_KEY_CAP * 3)}

        frames = []
        reporter, _ = make_reporter(frames)
        reporter.attach(Wide())
        reporter.finalize()
        telemetry = frames[-1]["telemetry"]
        # cap + the reporter's own "systems" count
        assert len(telemetry) <= SNAPSHOT_KEY_CAP + 1
        assert telemetry["systems"] == 1

    def test_snapshot_skips_raising_and_non_numeric(self):
        class Bad:
            def instrument_snapshot(self):
                raise RuntimeError("boom")

        class Mixed:
            def instrument_snapshot(self):
                return {"n": 3, "s": "text", "b": True}

        frames = []
        reporter, _ = make_reporter(frames)
        reporter.attach(Bad())
        reporter.attach(Mixed())
        reporter.finalize()
        telemetry = frames[-1]["telemetry"]
        assert telemetry["n"] == 3
        assert "s" not in telemetry and "b" not in telemetry

    def test_emit_exceptions_are_swallowed(self):
        def explode(frame):
            raise BrokenPipeError("gone")

        reporter = ProgressReporter(emit=explode)
        reporter.phase("x")            # must not raise
        reporter.finalize()
        assert reporter.frames == 2


class TestSession:
    def test_null_session_and_stack(self):
        assert current() is NULL_PROGRESS
        with session(None) as reporter:
            assert reporter is NULL_PROGRESS
            assert current() is NULL_PROGRESS
        frames = []
        live = ProgressReporter(emit=frames.append)
        with session(live) as reporter:
            assert reporter is live
            assert current() is live
        assert current() is NULL_PROGRESS
        assert len(frames) == 1        # finalize on exit

    def test_null_progress_is_inert(self):
        NULL_PROGRESS.attach(object())
        NULL_PROGRESS.tick(123)
        NULL_PROGRESS.phase("x")
        NULL_PROGRESS.finalize()
        assert NULL_PROGRESS.enabled is False


class TestHooksTickFanout:
    def test_forwards_to_enabled_sinks_only(self):
        order = []

        class Sink:
            enabled = True

            def __init__(self, name):
                self.name = name
                self.ticks = []

            def tick(self, now_ps):
                self.ticks.append(now_ps)
                order.append(self.name)

        class Disabled(Sink):
            enabled = False

        a, b, dead = Sink("a"), Sink("b"), Disabled("dead")
        hooks = Hooks()
        hooks.set(ticks=[a, b, dead])
        assert hooks.on
        assert hooks.ticks == (a, b)
        hooks.tick(7)
        hooks.tick(9)
        assert a.ticks == b.ticks == [7, 9]
        assert order == ["a", "b", "a", "b"]
        assert dead.ticks == []
        hooks.set()
        assert not hooks.on and hooks.ticks == ()


class TestIntegration:
    OPS = [{"op": "read", "addr": 0, "count": 2000, "stride": 64}]

    def test_stream_with_reporter_is_byte_identical(self):
        from repro.experiments.exec import run_stream

        frames = []
        reporter = ProgressReporter(emit=frames.append,
                                    interval_ps=50_000, min_wall_s=0.0)
        with_progress = run_stream("vans", self.OPS, progress=reporter)
        plain = run_stream("vans", self.OPS)
        assert with_progress == plain
        assert len(frames) >= 2
        sims = [f["sim_time_ns"] for f in frames]
        assert sims == sorted(sims)
        assert frames[0]["phase"] == "stream:vans"
        assert frames[-1]["done_requests"] >= 2000

    def test_experiment_with_reporter_matches_plain_payload(self):
        from repro.experiments.exec import run_experiment
        from repro.experiments.export import result_to_dict
        from repro.tools.serve_cli import payload_fingerprint

        frames = []
        reporter = ProgressReporter(emit=frames.append,
                                    interval_ps=1_000_000,
                                    min_wall_s=0.0)
        with_progress = [payload_fingerprint(result_to_dict(r))
                         for r in run_experiment("fig1", seed=42,
                                                 progress=reporter)]
        plain = [payload_fingerprint(result_to_dict(r))
                 for r in run_experiment("fig1", seed=42)]
        assert with_progress == plain
        assert len(frames) >= 2
        sims = [f["sim_time_ns"] for f in frames]
        assert sims == sorted(sims)
        assert frames[0]["phase"] == "fig1"

    def test_reporter_coexists_with_telemetry_sampler(self):
        """With both sessions active the sampler's timeline must be
        exactly what it records alone (the fanout tees, never alters)."""
        from repro.experiments.exec import run_experiment
        from repro.experiments.export import result_to_dict

        telemetry = {"interval_ps": 200_000}
        reporter = ProgressReporter(emit=lambda f: None,
                                    interval_ps=1_000_000,
                                    min_wall_s=0.0)
        both = [result_to_dict(r)
                for r in run_experiment("fig1", seed=42,
                                        telemetry=telemetry,
                                        progress=reporter)]
        alone = [result_to_dict(r)
                 for r in run_experiment("fig1", seed=42,
                                         telemetry=telemetry)]
        assert [d.get("telemetry") for d in both] == \
            [d.get("telemetry") for d in alone]

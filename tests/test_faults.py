"""Fault plans, the injector, and the repro-faults CLI."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FaultPlanError
from repro.experiments.common import Scale
from repro.experiments.export import result_to_dict
from repro.experiments.runner import run_experiment
from repro.faults import (
    NULL_FAULTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    current,
    power_cut_plan,
    random_plan,
    session,
    validate_plan,
)
from repro.tools import faults_cli


# -- hypothesis strategies: only well-formed specs --------------------------

_trigger = st.one_of(
    st.tuples(st.integers(0, 10**12), st.none()),
    st.tuples(st.none(), st.integers(1, 10**6)),
    st.tuples(st.none(), st.none()),
)
_factor = st.floats(min_value=1.0, max_value=8.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(("power_cut", "media_ue", "media_slow",
                                 "link_degrade")))
    if kind == "power_cut":
        at_ps, at_request = draw(_trigger.filter(
            lambda t: t != (None, None)))
        return FaultSpec(kind=kind, at_ps=at_ps, at_request=at_request)
    at_ps, at_request = draw(_trigger)
    duration = draw(st.integers(0, 10**12))
    extra = draw(st.integers(1, 10**9))   # >=1 so every episode injects
    if kind == "media_ue":
        lo = draw(st.integers(0, 2**40 - 2))
        hi = draw(st.integers(lo + 1, 2**40))
        return FaultSpec(kind=kind, at_ps=at_ps, at_request=at_request,
                         duration_ps=duration, addr_lo=lo, addr_hi=hi,
                         extra_ps=extra)
    if kind == "link_degrade":
        channel = draw(st.one_of(st.none(), st.integers(0, 5)))
        return FaultSpec(kind=kind, at_ps=at_ps, at_request=at_request,
                         duration_ps=duration, extra_ps=extra,
                         factor=draw(_factor), channel=channel)
    return FaultSpec(kind=kind, at_ps=at_ps, at_request=at_request,
                     duration_ps=duration, extra_ps=extra,
                     factor=draw(_factor))


fault_plans = st.builds(
    FaultPlan,
    specs=st.lists(fault_specs(), max_size=6).map(tuple),
    seed=st.integers(0, 2**31),
    description=st.text(
        st.characters(min_codepoint=32, max_codepoint=126), max_size=40),
)


class TestPlanRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(fault_plans)
    def test_json_round_trip_is_identity(self, plan):
        doc = json.loads(json.dumps(plan.to_dict()))
        assert validate_plan(doc) == []
        assert FaultPlan.from_dict(doc) == plan

    @settings(max_examples=60, deadline=None)
    @given(fault_specs())
    def test_specs_self_validate(self, spec):
        assert spec.problems() == []

    def test_random_plan_reproducible(self):
        assert random_plan(7).to_dict() == random_plan(7).to_dict()
        assert random_plan(7).to_dict() != random_plan(8).to_dict()

    def test_save_load_round_trip(self, tmp_path):
        from repro.faults import load_plan, save_plan
        plan = random_plan(3)
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        assert load_plan(path) == plan


class TestPlanValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="meteor_strike", at_ps=1)

    def test_power_cut_needs_a_trigger(self):
        with pytest.raises(FaultPlanError, match="at_ps or at_request"):
            FaultSpec(kind="power_cut")

    def test_triggers_mutually_exclusive(self):
        with pytest.raises(FaultPlanError, match="mutually exclusive"):
            FaultSpec(kind="power_cut", at_ps=1, at_request=1)

    def test_media_ue_needs_region(self):
        with pytest.raises(FaultPlanError, match="addr_hi > addr_lo"):
            FaultSpec(kind="media_ue", at_ps=0, addr_lo=64, addr_hi=64)

    def test_noop_episode_rejected(self):
        with pytest.raises(FaultPlanError, match="injects nothing"):
            FaultSpec(kind="media_slow", at_ps=0)

    def test_validate_plan_flags_bad_documents(self):
        assert validate_plan({}) != []
        assert validate_plan({"schema": "repro.faultplan/1",
                              "faults": "nope"}) != []
        assert any("unknown" in p for p in validate_plan(
            {"schema": "repro.faultplan/1",
             "faults": [{"kind": "power_cut", "at_ps": 1, "zap": 1}]}))


def _deterministic_dict(result):
    doc = result_to_dict(result)
    doc.pop("wall_s")
    doc.pop("faults")
    return doc


class TestNullInjector:
    def test_null_faults_is_disabled_and_inert(self):
        assert NULL_FAULTS.enabled is False
        assert NULL_FAULTS.media_extra_ps(0, False, 0, 100) == 0
        assert NULL_FAULTS.link_extra_ps(0, 0, 100) == 0
        assert NULL_FAULTS.migration_extra_ps(0, 100) == 0
        NULL_FAULTS.on_request(5)     # all no-ops
        NULL_FAULTS.note_fence(5)

    def test_no_session_means_null(self):
        assert current() is NULL_FAULTS
        injector = FaultInjector(power_cut_plan(at_ps=1))
        with session(injector):
            assert current() is injector
        assert current() is NULL_FAULTS

    def test_empty_plan_bit_identical_to_no_faults(self):
        bare = run_experiment("fig1", Scale.SMOKE)
        empty = run_experiment("fig1", Scale.SMOKE, faults=FaultPlan())
        assert [_deterministic_dict(r) for r in bare] == \
               [_deterministic_dict(r) for r in empty]
        assert all(r.faults["summary"]["plan_faults"] == 0 for r in empty)


class TestInjectorEpisodes:
    def test_media_slow_stretches_only_in_window(self):
        plan = FaultPlan(specs=(FaultSpec(
            kind="media_slow", at_ps=1000, duration_ps=1000,
            factor=3.0, extra_ps=7),))
        injector = FaultInjector(plan)
        assert injector.media_extra_ps(0, False, 999, 100) == 0
        assert injector.media_extra_ps(0, False, 1500, 100) == 207
        assert injector.media_extra_ps(0, False, 2001, 100) == 0

    def test_media_ue_hits_reads_in_region_only(self):
        plan = FaultPlan(specs=(FaultSpec(
            kind="media_ue", at_ps=0, addr_lo=4096, addr_hi=8192,
            extra_ps=500),))
        injector = FaultInjector(plan)
        assert injector.media_extra_ps(4096, False, 10, 100) == 500
        assert injector.media_extra_ps(4096, True, 10, 100) == 0
        assert injector.media_extra_ps(0, False, 10, 100) == 0
        assert injector.counters["ue_hits"] == 1

    def test_link_degrade_filters_by_channel(self):
        plan = FaultPlan(specs=(FaultSpec(
            kind="link_degrade", at_ps=0, factor=2.0, channel=1),))
        injector = FaultInjector(plan)
        assert injector.link_extra_ps(1, 10, 100) == 100
        assert injector.link_extra_ps(0, 10, 100) == 0

    def test_power_cut_at_request_fires_once(self):
        injector = FaultInjector(power_cut_plan(at_request=3))
        for now in (10, 20, 30, 40):
            injector.on_request(now)
        assert injector.cut_ps == 30
        assert injector.counters["power_cuts"] == 1
        assert injector.summary()["requests"] == 4


class TestFaultsCli:
    def test_example_and_check(self, tmp_path, capsys):
        assert faults_cli.main(["--example"]) == 0
        plan_doc = capsys.readouterr().out
        path = tmp_path / "plan.json"
        path.write_text(plan_doc)
        assert faults_cli.main(["--check", str(path)]) == 0

    def test_check_rejects_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        assert faults_cli.main(["--check", str(path)]) == 2

    def test_usage_errors_exit_2(self, capsys):
        assert faults_cli.main([]) == 2                    # no plan
        assert faults_cli.main(["--power-cut-at-ps", "1",
                                "--target", "nosuch"]) == 2

    def test_power_cut_run_writes_valid_report(self, tmp_path, capsys):
        from repro.faults import validate_fault_report
        report_path = tmp_path / "report.json"
        code = faults_cli.main([
            "--power-cut-at-request", "300", "--target", "vans",
            "--writes", "600", "--migrate-threshold", "50",
            "--json", str(report_path), "--fail-on-lost"])
        assert code == 0      # fenced vans loses nothing
        doc = json.loads(report_path.read_text())
        assert validate_fault_report(doc) == []
        assert doc["persistence"]["lost_count"] == 0
        assert faults_cli.main(["--check-report", str(report_path)]) == 0

    def test_fail_on_lost_exits_3_for_lazy(self, capsys):
        code = faults_cli.main([
            "--power-cut-at-request", "300", "--target", "vans-lazy",
            "--writes", "600", "--migrate-threshold", "50",
            "--fail-on-lost"])
        assert code == 3
        out = capsys.readouterr()
        assert "lazy_dirty" in out.out
        assert "lost" in out.err


class TestObservabilityWiring:
    def test_counters_published_once_onto_first_bus(self):
        from repro import registry
        injector = FaultInjector(power_cut_plan(at_request=10**9))
        with session(injector):
            first = registry.build("vans", migrate_threshold=50)
            second = registry.build("vans-lazy", migrate_threshold=50)
        assert injector.published is True
        first_snap = first.instrument_snapshot()
        assert "faults.power_cuts" in first_snap
        assert "faults.requests" in first_snap
        # only the first system carries the gauges, so merged collection
        # snapshots (which sum per path) count each fault exactly once
        assert not any(k.startswith("faults.")
                       for k in second.instrument_snapshot())

    def test_memory_mode_built_first_carries_fault_gauges(self):
        from repro import registry
        from repro.instrument import Collection
        injector = FaultInjector(power_cut_plan(at_request=10**9))
        with Collection() as col, session(injector):
            first = registry.build("memory-mode")
            second = registry.build("vans")
        assert "faults.power_cuts" in first.instrument_snapshot()
        assert "faults.power_cuts" in col.merged()
        assert not any(k.startswith("faults.")
                       for k in second.instrument_snapshot())

    def test_fault_gauges_skip_systems_outside_vans(self):
        """Only a VANS or Memory Mode system hosts the fault gauges: a
        baseline built first leaves them to the next VANS build."""
        from repro import registry
        injector = FaultInjector(power_cut_plan(at_request=10**9))
        with session(injector):
            baseline = registry.build("ramulator-ddr4")
            vans = registry.build("vans")
        assert not any(k.startswith("faults.")
                       for k in baseline.instrument_snapshot())
        assert "faults.power_cuts" in vans.instrument_snapshot()

    def test_empty_plan_publishes_no_gauges(self):
        from repro import registry
        injector = FaultInjector(FaultPlan())
        with session(injector):
            system = registry.build("vans")
        assert injector.published is False
        assert not any(k.startswith("faults.")
                       for k in system.instrument_snapshot())

    def test_power_cut_emits_one_flight_instant(self):
        from repro.flight.recorder import FlightRecorder
        from repro.flight.recorder import session as flight_session
        injector = FaultInjector(power_cut_plan(at_request=2))
        recorder = FlightRecorder()
        with flight_session(recorder):
            recorder.begin("write", 0x0, issue_ps=0)
            for now in (10, 20, 30):
                injector.on_request(now)
            recorder.end(40)
        instants = [i for r in recorder.records for i in r.instants
                    if i.station == "faults"]
        assert len(instants) == 1
        assert instants[0].name == "power_cut"
        assert instants[0].ts_ps == 20


class TestRunnerFaultsIntegration:
    def test_run_experiment_attaches_fault_report(self):
        plan = dataclasses.replace(power_cut_plan(at_request=500), seed=9)
        results = run_experiment("fig1", Scale.SMOKE, faults=plan.to_dict())
        for result in results:
            assert result.faults["schema"] == "repro.faultreport/1"
            assert result.faults["summary"]["seed"] == 9
            assert result.faults["summary"]["counters"]["power_cuts"] == 1
            assert "persistence" in result.faults

    @pytest.mark.parametrize("op", ["write", "write_nt"])
    def test_pmep_store_paths_count_requests(self, op):
        from repro.experiments.exec import run_stream
        doc = run_stream("pmep", [{"op": op, "count": 10, "stride": 64}],
                         faults=power_cut_plan(at_request=5))
        summary = doc["faults"]["summary"]
        assert summary["requests"] == 10
        assert summary["counters"]["power_cuts"] == 1
        assert summary["power_cut_ps"] is not None


class TestRandomPlanEdges:
    def test_zero_horizon_plan_is_well_formed(self):
        plan = random_plan(0, horizon_ps=0)
        assert validate_plan(plan.to_dict()) == []
        cuts = [s for s in plan.specs if s.kind == "power_cut"]
        assert len(cuts) == 1
        # episode windows degrade gracefully to 1-ps durations
        for spec in plan.specs:
            if spec.kind != "power_cut" and spec.duration_ps is not None:
                assert spec.duration_ps >= 0

    def test_zero_horizon_deterministic(self):
        assert random_plan(3, horizon_ps=0).to_dict() == \
               random_plan(3, horizon_ps=0).to_dict()

    def test_duplicate_cut_times_keep_earliest(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="power_cut", at_ps=9_000),
            FaultSpec(kind="power_cut", at_ps=3_000),
            FaultSpec(kind="power_cut", at_ps=3_000),
        ))
        injector = FaultInjector(plan)
        assert injector.cut_ps == 3_000

    def test_equal_cut_times_are_one_cut(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="power_cut", at_ps=7_000),
            FaultSpec(kind="power_cut", at_ps=7_000),
        ))
        injector = FaultInjector(plan)
        assert injector.cut_ps == 7_000
        for now in (6_000, 7_000, 8_000):
            injector.on_request(now)
        assert injector.counters["power_cuts"] == 1

    def test_cut_at_ordinal_zero_rejected(self):
        with pytest.raises(FaultPlanError, match="at_request"):
            FaultSpec(kind="power_cut", at_request=0)

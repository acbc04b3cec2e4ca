"""Litmus generator, oracle, corpus, campaign, and stream-op plumbing."""

import json
import time

import pytest

from repro.common.errors import FaultPlanError
from repro.experiments import exec as exec_core
from repro.faults import power_cut_plan
from repro.litmus import (
    CONTRACTS,
    LITMUS_SCHEMA,
    REQUEST_OPS,
    LitmusCase,
    campaign_exit_code,
    check,
    contract_for,
    load_corpus,
    outcome_of,
    random_case,
    replay_corpus,
    run_campaign,
    run_case,
    save_corpus,
    shrink_case,
    validate_case,
    validate_corpus,
)
from repro.litmus import campaign
from repro.litmus.corpus import case_entry
from repro.tools import litmus_cli


# -- generator --------------------------------------------------------------

class TestGenerator:
    def test_same_seed_same_case(self):
        assert random_case(7).to_dict() == random_case(7).to_dict()

    def test_different_seeds_differ(self):
        assert random_case(1).ops != random_case(2).ops

    def test_target_changes_stream(self):
        # the rng purpose string includes the target, so the same seed
        # fuzzes each target differently
        assert random_case(3, target="vans").ops != \
               random_case(3, target="vans-lazy").ops

    def test_generated_cases_are_valid(self):
        for seed in range(20):
            doc = random_case(seed, target="vans-lazy").to_dict()
            assert validate_case(doc) == []

    def test_cut_ordinal_within_request_count(self):
        for seed in range(20):
            case = random_case(seed)
            nreq = case.request_ops
            assert nreq >= 1
            assert 1 <= case.cut_at_request <= nreq

    def test_vans_family_gets_migrate_threshold(self):
        case = random_case(4, target="vans-lazy")
        assert case.overrides["migrate_threshold"] in (4, 8, 16)
        assert "migrate_threshold" not in \
               random_case(4, target="memory-mode").overrides

    def test_round_trip(self):
        case = random_case(11, target="vans")
        assert LitmusCase.from_dict(case.to_dict()) == case

    def test_validate_rejects_garbage(self):
        assert validate_case({"schema": "nope"})
        doc = random_case(0).to_dict()
        doc["ops"] = [{"op": "explode", "addr": 0}]
        assert any("explode" in p for p in validate_case(doc))
        doc = random_case(0).to_dict()
        doc["cut_at_request"] = 0
        assert validate_case(doc)

    def test_from_dict_rejects_invalid(self):
        with pytest.raises(FaultPlanError):
            LitmusCase.from_dict({"schema": LITMUS_SCHEMA, "ops": []})


# -- oracle golden cases ----------------------------------------------------

def _case(name, target, ops, cut, **overrides):
    return LitmusCase(name=name, target=target, ops=tuple(ops),
                      cut_at_request=cut, seed=0,
                      overrides=dict(overrides))


class TestOracle:
    def test_contract_map(self):
        assert CONTRACTS["vans"] == "adr"
        assert contract_for("vans-lazy", {}) == "adr-lazy"
        assert contract_for("memory-mode", {}) == "none"
        # the lazy_cache override flips the vans contracts
        assert contract_for("vans", {"lazy_cache": True}) == "adr-lazy"
        assert contract_for("vans-lazy", {"lazy_cache": False}) == "adr"

    def test_fenced_nt_stores_all_durable(self):
        case = _case("fenced", "vans", [
            {"op": "write", "addr": 0x0},
            {"op": "write", "addr": 0x40},
            {"op": "fence"},
            {"op": "write", "addr": 0x80},
        ], cut=3)
        result = run_case(case)
        verdict = check(case, result)
        assert verdict.ok, verdict.violations
        outcome = outcome_of(result)
        assert outcome["cut"] is True
        assert outcome["lost"] == []

    def test_unflushed_store_lost_is_not_a_violation(self):
        # a plain store with no flush is *allowed* to be lost under ADR
        case = _case("unflushed", "vans", [
            {"op": "store", "addr": 0x0},
            {"op": "write", "addr": 0x100},
        ], cut=1)
        result = run_case(case)
        verdict = check(case, result)
        assert verdict.ok, verdict.violations
        assert [(e[1], e[2]) for e in verdict.losses] == \
               [("cache", "unflushed")]

    def test_store_flush_fence_before_cut_must_survive(self):
        case = _case("sff", "vans", [
            {"op": "store", "addr": 0x0},
            {"op": "flush", "addr": 0x0},
            {"op": "fence"},
            {"op": "write", "addr": 0x100},
        ], cut=2)
        result = run_case(case)
        verdict = check(case, result)
        assert verdict.ok, verdict.violations
        assert verdict.losses == []

    def test_memory_mode_contract_skips_cut_mapping(self):
        case = random_case(5, target="memory-mode")
        verdict = check(case, run_case(case))
        assert verdict.contract == "none"
        assert verdict.ok, verdict.violations

    def test_oracle_flags_forged_wpq_loss_on_vans(self):
        # tamper with a clean result: claim an acknowledged nt-store was
        # lost — under the strict ADR contract that is a violation
        case = _case("forged", "vans", [
            {"op": "write", "addr": 0x0},
            {"op": "write", "addr": 0x100},
        ], cut=2)
        result = run_case(case)
        result["faults"]["persistence"]["lost"] = [
            {"addr": 0, "ack_ps": 1, "domain": "wpq",
             "reason": "lazy_dirty"}]
        result["faults"]["persistence"]["durable_lines"] -= 1
        result["faults"]["persistence"]["lost_count"] = 1
        verdict = check(case, result)
        assert not verdict.ok
        assert any(v["kind"] == "wpq_loss" for v in verdict.violations)

    def test_missing_cut_is_a_violation(self):
        case = _case("nocut", "vans", [
            {"op": "write", "addr": 0x0},
            {"op": "write", "addr": 0x40},
        ], cut=2)
        result = run_case(case)
        result["faults"]["persistence"] = None
        verdict = check(case, result)
        assert any(v["kind"] == "missing_cut" for v in verdict.violations)

    def test_sweep_has_no_violations(self):
        for target in ("vans", "vans-lazy", "memory-mode"):
            for seed in range(8):
                case = random_case(seed, target=target)
                verdict = check(case, run_case(case))
                assert verdict.ok, (target, seed, verdict.violations)


# -- stream ops: flush / store / write_nt plumbing --------------------------

class TestStreamOps:
    def test_unknown_op_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'flush'"):
            exec_core.run_stream("vans", [{"op": "flsh", "addr": 0}])

    def test_flush_without_faults_still_runs(self):
        result = exec_core.run_stream("vans", [
            {"op": "store", "addr": 0},
            {"op": "flush", "addr": 0},
            {"op": "fence"},
        ])
        assert result["counts"] == {"read": 0, "write": 0, "write_nt": 0,
                                    "store": 1, "flush": 1, "fence": 1}
        assert result["faults"] == {}

    def test_flush_does_not_forge_wpq_ack(self):
        # a flush rides the write datapath for timing but must land in
        # the checker as a flush, never as a WPQ acknowledgement
        plan = power_cut_plan(at_request=3, seed=0)
        result = exec_core.run_stream("vans", [
            {"op": "flush", "addr": 0x0},
            {"op": "write", "addr": 0x100},
            {"op": "read", "addr": 0x200},
        ], faults=plan)
        persistence = result["faults"]["persistence"]
        # only the nt-store acked; the bare flush acked nothing
        assert persistence["acked_lines"] == 1

    def test_store_flush_fence_acks_cache_domain(self):
        plan = power_cut_plan(at_request=3, seed=0)
        result = exec_core.run_stream("vans", [
            {"op": "store", "addr": 0x0},
            {"op": "flush", "addr": 0x0},
            {"op": "fence"},
            {"op": "write", "addr": 0x100},
            {"op": "read", "addr": 0x200},
        ], faults=plan)
        persistence = result["faults"]["persistence"]
        assert persistence["acked_lines"] == 2
        assert persistence["lost_count"] == 0

    def test_write_nt_falls_back_to_write(self):
        result = exec_core.run_stream("vans", [
            {"op": "write_nt", "addr": 0, "count": 4}])
        assert result["counts"]["write_nt"] == 4

    def test_faults_doc_accepted_as_mapping(self):
        plan = power_cut_plan(at_request=1, seed=3)
        by_plan = exec_core.run_stream(
            "vans", [{"op": "write", "addr": 0}], faults=plan)
        by_doc = exec_core.run_stream(
            "vans", [{"op": "write", "addr": 0}], faults=plan.to_dict())
        assert by_plan["faults"] == by_doc["faults"]


# -- corpus -----------------------------------------------------------------

class TestCorpus:
    def test_committed_corpus_validates_and_replays_clean(self):
        doc = load_corpus("corpus/litmus.json")
        assert any(entry["target"] == "vans-lazy"
                   and any(item[1] == "wpq"
                           for item in entry["expected"]["lost"])
                   for entry in doc["cases"]), \
            "corpus must pin the vans-lazy acknowledged-loss family"
        report = replay_corpus(doc)
        assert report["checked"] == len(doc["cases"])
        assert report["drift"] == []
        assert report["violations"] == []

    def test_round_trip(self, tmp_path):
        entries = [case_entry(random_case(seed, target="vans"))
                   for seed in range(3)]
        path = tmp_path / "corpus.json"
        save_corpus(path, entries)
        doc = load_corpus(path)
        assert [c["name"] for c in doc["cases"]] == \
               [e["name"] for e in entries]
        report = replay_corpus(doc)
        assert report["drift"] == [] and report["violations"] == []

    def test_replay_detects_drift(self, tmp_path):
        entry = case_entry(random_case(0, target="vans"))
        entry["expected"]["durable_lines"] += 1
        entry["expected"]["acked_lines"] += 1
        doc = {"schema": LITMUS_SCHEMA, "cases": [entry]}
        report = replay_corpus(doc)
        assert len(report["drift"]) == 1
        assert report["drift"][0]["name"] == entry["name"]

    def test_validate_rejects_duplicates_and_missing_expected(self):
        entry = case_entry(random_case(0))
        doc = {"schema": LITMUS_SCHEMA, "cases": [entry, dict(entry)]}
        assert any("duplicate" in p for p in validate_corpus(doc))
        bare = random_case(1).to_dict()
        doc = {"schema": LITMUS_SCHEMA, "cases": [bare]}
        assert any("expected" in p for p in validate_corpus(doc))

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "wrong", "cases": []}))
        with pytest.raises(FaultPlanError):
            load_corpus(path)


# -- campaign ---------------------------------------------------------------

class TestCampaign:
    def test_serial_campaign_deterministic(self):
        a = run_campaign(9, 12)
        b = run_campaign(9, 12)
        assert a["loss_families"] == b["loss_families"]
        assert a["completed"] == b["completed"] == 12
        assert a["violation_count"] == 0
        assert a["exit_code"] == 0

    def test_parallel_matches_serial(self):
        serial = run_campaign(9, 30)
        parallel = run_campaign(9, 30, workers=2)
        assert parallel["completed"] == 30
        assert parallel["loss_families"] == serial["loss_families"]
        assert parallel["violation_count"] == 0

    def test_parallel_report_keeps_case_order(self, monkeypatch):
        """The batch holding case 0 settles last; the report (first
        example per loss family included) must still equal the serial
        one."""
        run_batch = campaign._run_batch

        def slow_first_batch(batch):
            if batch[0]["name"].startswith("campaign-11-0-"):
                time.sleep(1.0)
            return run_batch(batch)

        serial = run_campaign(11, 60)
        monkeypatch.setattr(campaign, "_run_batch", slow_first_batch)
        parallel = run_campaign(11, 60, workers=2)
        assert (serial.pop("workers"), parallel.pop("workers")) == (1, 2)
        assert parallel == serial

    def test_counters_ride_the_bus(self):
        report = run_campaign(2, 6)
        counters = report["counters"]
        assert counters["litmus.cases"] == 6
        assert counters["litmus.ok"] == 6
        assert counters["litmus.violations"] == 0

    def test_targets_round_robin(self):
        report = run_campaign(1, 6, targets=("vans", "vans-lazy"))
        names = [v["case"]["name"] for v in report.get("violations", [])]
        assert names == []  # no violations expected
        assert report["targets"] == ["vans", "vans-lazy"]

    def test_exit_codes(self):
        assert campaign_exit_code({"violation_count": 1}) == 3
        assert campaign_exit_code(
            {"violation_count": 0, "cases": 4, "completed": 0}) == 1
        assert campaign_exit_code(
            {"violation_count": 0, "cases": 4, "completed": 3,
             "failed": 1}) == 4
        assert campaign_exit_code(
            {"violation_count": 0, "cases": 4, "completed": 4,
             "failed": 0}) == 0


# -- serve thin-client path -------------------------------------------------

class TestServePath:
    def test_stream_faults_round_trip_through_daemon(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import running_daemon

        case = random_case(28, target="vans-lazy")
        local = run_case(case)
        with running_daemon(workers=1) as daemon:
            with ServeClient("127.0.0.1", daemon.port,
                             tenant="litmus") as client:
                served = run_case(case, client=client)
                report = run_campaign(5, 6, client=client)
        strip = lambda d: {k: v for k, v in d.items() if k != "session"}
        assert strip(served) == strip(local)
        assert outcome_of(served) == outcome_of(local)
        assert report["completed"] == 6
        assert report["violation_count"] == 0


# -- CLI --------------------------------------------------------------------

class TestCli:
    def test_gen_writes_valid_case(self, tmp_path, capsys):
        out = tmp_path / "case.json"
        assert litmus_cli.main(["gen", "--seed", "28", "--target",
                                "vans-lazy", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_case(doc) == []
        assert doc == random_case(28, target="vans-lazy").to_dict()

    def test_run_clean_case_exits_zero(self, tmp_path, capsys):
        assert litmus_cli.main(["run", "--seed", "3",
                                "--target", "vans"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_violating_result_exits_three(self, tmp_path, capsys):
        # memory-mode with lazy_cache forced on would be a structural
        # violation; simpler: corpus drift is covered elsewhere, so
        # exercise the exit path through a forged corpus instead
        entry = case_entry(random_case(0, target="vans"))
        entry["expected"]["durable_lines"] += 1
        entry["expected"]["acked_lines"] += 1
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(
            {"schema": LITMUS_SCHEMA, "cases": [entry]}))
        assert litmus_cli.main(["corpus", str(path), "--replay"]) == 3

    def test_corpus_validate_and_replay_committed(self, capsys):
        assert litmus_cli.main(["corpus", "corpus/litmus.json"]) == 0
        assert litmus_cli.main(["corpus", "corpus/litmus.json",
                                "--replay"]) == 0

    def test_campaign_smoke(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = litmus_cli.main([
            "campaign", "--seed", "11", "--cases", "40",
            "--require-loss-on", "vans-lazy", "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["completed"] == 40
        assert any(family.startswith("vans-lazy/")
                   for family in report["loss_families"])

    def test_campaign_require_loss_unmet_exits_one(self, tmp_path,
                                                   capsys):
        rc = litmus_cli.main([
            "campaign", "--seed", "1", "--cases", "2",
            "--targets", "vans", "--require-loss-on", "vans-lazy"])
        assert rc == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        assert litmus_cli.main(["run", str(bad)]) == 2
        bad.write_text("{\"schema\": \"wrong\"}")
        assert litmus_cli.main(["corpus", str(bad)]) == 2

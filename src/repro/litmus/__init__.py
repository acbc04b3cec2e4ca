"""Crash-consistency litmus campaign: generative persistency fuzzing.

The paper's persistence model (ADR domain, WPQ persistence point, the
Section V-C Lazy cache's betrayal of acknowledged writes) is only
trustworthy if it survives adversarial inputs, not just hand-written
cases.  This package fuzzes it continuously:

* :mod:`repro.litmus.program` — seeded generation of small randomized
  litmus programs (regular stores, nt-stores, ``clwb``-style flushes,
  fences, overlapping cache-line addresses) crossed with seeded
  power-cut ordinals; the ``repro.litmus/1`` case document;
* :mod:`repro.litmus.oracle` — runs a case through
  :func:`repro.experiments.exec.run_stream` (or a ``repro-serve``
  client) and checks the persistence audit against each target's ADR
  contract: program-order MUST-durable / MUST-lost invariants that are
  robust to simulated-time ties;
* :mod:`repro.litmus.shrink` — signature-preserving delta debugging of
  failing cases down to a minimal reproducer (ops, cut ordinal, and
  addresses are all minimized; every step is re-verified; fully
  deterministic, so same-seed shrinks are identical across runs);
* :mod:`repro.litmus.corpus` — a persisted corpus of known-outcome
  cases CI replays as a drift gate;
* :mod:`repro.litmus.campaign` — the campaign driver: thousands of
  seeded cases through the crash-tolerant watchdogged worker scheme,
  with litmus counters on a :class:`~repro.engine.stats.StatsRegistry`
  and progress frames through :mod:`repro.progress`.

Front end: the ``repro-litmus`` CLI
(:mod:`repro.tools.litmus_cli` — ``gen``/``run``/``shrink``/
``corpus``/``campaign``; exit 3 on oracle violation, 4 on a partial
campaign).
"""

from repro.litmus.campaign import (
    LITMUS_CAMPAIGN_SCHEMA,
    campaign_exit_code,
    run_campaign,
)
from repro.litmus.corpus import (
    CORPUS_SCHEMA,
    load_corpus,
    replay_corpus,
    save_corpus,
    validate_corpus,
)
from repro.litmus.oracle import (
    CONTRACTS,
    Verdict,
    check,
    contract_for,
    outcome_of,
    run_case,
)
from repro.litmus.program import (
    LITMUS_SCHEMA,
    REQUEST_OPS,
    LitmusCase,
    random_case,
    validate_case,
)
from repro.litmus.shrink import ShrinkResult, shrink_case

__all__ = [
    "CONTRACTS",
    "CORPUS_SCHEMA",
    "LITMUS_CAMPAIGN_SCHEMA",
    "LITMUS_SCHEMA",
    "REQUEST_OPS",
    "LitmusCase",
    "ShrinkResult",
    "Verdict",
    "campaign_exit_code",
    "check",
    "contract_for",
    "load_corpus",
    "outcome_of",
    "random_case",
    "replay_corpus",
    "run_campaign",
    "run_case",
    "save_corpus",
    "shrink_case",
    "validate_case",
    "validate_corpus",
]

"""LENS — Low-level profilEr for Non-volatile memory Systems.

LENS reverse engineers NVRAM microarchitecture from performance patterns
(Section III).  It consists of:

* three microbenchmarks — pointer chasing, overwrite, stride — each with
  the variants of Table II (:mod:`repro.lens.microbench`);
* three probers — buffer, policy, performance — that run the
  microbenchmarks and infer buffer capacities/entry sizes/hierarchy,
  wear-leveling parameters, interleaving policy, and per-level
  latency/bandwidth, plus an address-mapping prober
  (:mod:`repro.lens.probers`);
* curve analysis (inflection detection, amplification scores, tail
  detection, periodicity detection; :mod:`repro.lens.analysis`);
* a characterization report (the Figure 8 parameter table;
  :func:`repro.lens.report.characterize`).

The paper implements LENS as a Linux kernel module driving real DIMMs
with AVX-512 nt instructions; here the same benchmarks drive any
:class:`~repro.target.TargetSystem` (VANS, a baseline, or the Optane
reference).

The packages re-export nothing: import each class from the module that
defines it, so a caller that needs one microbenchmark loads only that
one.
"""

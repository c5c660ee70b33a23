"""Sample analyses shipped with the framework.

These are the "user code" of the reproduction.  Each module holds one
analysis as a ``SOURCE`` string — the form in which user code reaches the
grid: staged through the code loader, compiled in the engine sandbox
(``load_analysis(module.SOURCE)``), hot-reloaded with new parameters:

* :mod:`repro.analysis.higgs` — the paper's workload ("a Java algorithm
  that looks for Higgs Bosons in simulated Linear Collider data", §4),
  reimplemented vectorized;
* :mod:`repro.analysis.counting` — minimal per-process bookkeeping;
* :mod:`repro.analysis.cuts` — a tunable-cut analysis used by the
  interactive fine-tuning example;
* :mod:`repro.analysis.trading` — a stock-trade VWAP analysis (and the
  generator of its records) demonstrating the paper's claim that the
  framework "can easily be adopted for applications in other fields" (§6).

The byte length of a ``SOURCE`` is what the stage-code transfer is charged
for, so ``tests/test_analysis_samples.py`` pins each one's length and hash.
"""

"""Hot-kernel tiers for the engines and the timing replay.

:mod:`repro.perf.backend` resolves one kernel backend per process (the
numpy reference or the compiled C tier) and holds the parity reference
the tests compare every tier against.  perfbench (``BENCHMARK.json``)
measures them end to end and per layer.
"""

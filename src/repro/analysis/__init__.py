"""Static analysis of the repository itself.

:mod:`repro.analysis.reprolint` is the AST-based determinism and
invariant analyzer behind ``python -m repro lint``
(docs/STATIC_ANALYSIS.md).  Experiment grids are reported by
:mod:`repro.experiments.report`.
"""

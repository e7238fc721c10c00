"""Weighted partial MaxSAT solving on top of :mod:`repro.sat`.

The paper's tool calls Open-WBO-Inc-MCS, an *anytime* MaxSAT solver: it keeps
improving a model of the hard constraints and can be interrupted at any point,
returning the best solution found so far.  This package reproduces that
behaviour with one search built on our CDCL solver:
:class:`repro.maxsat.solver.MaxSatSolver`, a model-improving linear
SAT->UNSAT search with a (generalised) totalizer bound, run on a live CDCL
solver of its own (``MaxSatSolver(backend=...)``).  It accepts a
:class:`repro.maxsat.wcnf.WcnfBuilder` and a time budget.
"""

from repro.maxsat.wcnf import WcnfBuilder
from repro.maxsat.solver import MaxSatResult, MaxSatSolver, MaxSatStatus

__all__ = ["WcnfBuilder", "MaxSatSolver", "MaxSatResult", "MaxSatStatus"]

"""Names kept for the benchmark walk; there is no cost-based planner.

``benchmarks/gate/walk.py`` is not edited alongside the library and imports
``choose_plan`` from here and ``semijoin_planning`` from
:mod:`repro.planner.kernels`.  It calls ``choose_plan`` only when
:func:`repro.config.planner_enabled` is true, which it never is: every plan
runs its one ``PreparedQuery.decomposition``.  Nothing in ``repro`` imports
this package.
"""

__all__ = ["choose_plan"]


def choose_plan(candidates, instance):
    """Never called (see the module docstring); raises if it ever is."""
    raise NotImplementedError("repro has no cost-based planner")

"""``semijoin_planning``, kept for the benchmark walk (see :mod:`repro.planner`).

The walk wraps its reduce step in ``with semijoin_planning(False):``.  Every
semi-join runs the hash kernel, so the scope changes nothing.
"""

from contextlib import nullcontext

__all__ = ["semijoin_planning"]


def semijoin_planning(enabled: bool = False):
    """A scope that changes nothing: there is one semi-join kernel."""
    return nullcontext()

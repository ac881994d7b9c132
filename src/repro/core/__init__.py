"""The paper's core contribution: OMQ testing and constant-delay enumeration.

Module-to-paper map:

* :mod:`repro.core.omq` — OMQs ``(O, S, q)`` and evaluation through the
  query-directed chase (Lemma 3.2);
* :mod:`repro.core.enumeration` — complete-answer enumeration in CD∘Lin
  (Theorem 4.1(1));
* :mod:`repro.core.testing` — single-testing (Theorem 3.1) and
  all-testing (Theorem 4.1(2) via Proposition 4.2);
* :mod:`repro.core.wildcards` — partial answers, wildcard orders, balls
  and cones (Sections 2 and 6);
* :mod:`repro.core.progress` — minimal partial answers with a single
  wildcard, DelayClin (Algorithm 1, Theorem 5.2);
* :mod:`repro.core.multiwildcard` — minimal partial answers with
  multi-wildcards (Algorithm 2, Theorem 6.1).
"""

from repro.core.omq import OMQ
from repro.core.wildcards import (
    WILDCARD,
    Wildcard,
    ball,
    collapse_nulls,
    collapse_nulls_multi,
    cone,
    leq_multi,
    leq_partial,
    lt_multi,
    lt_partial,
    minimal_multi_tuples,
    minimal_partial_tuples,
)
from repro.core.testing import OMQAllTester, OMQSingleTester
from repro.core.enumeration import CompleteAnswerEnumerator, enumerate_complete_answers
from repro.core.progress import (
    MinimalPartialAnswerEnumerator,
    PartialAnswerEnumerator,
    enumerate_minimal_partial_answers,
)
from repro.core.multiwildcard import (
    MultiWildcardEnumerator,
    enumerate_multiwildcard_answers,
)

__all__ = [
    "OMQ",
    "WILDCARD",
    "Wildcard",
    "OMQAllTester",
    "OMQSingleTester",
    "CompleteAnswerEnumerator",
    "MinimalPartialAnswerEnumerator",
    "MultiWildcardEnumerator",
    "PartialAnswerEnumerator",
    "ball",
    "collapse_nulls",
    "collapse_nulls_multi",
    "cone",
    "enumerate_complete_answers",
    "enumerate_minimal_partial_answers",
    "enumerate_multiwildcard_answers",
    "leq_multi",
    "leq_partial",
    "lt_multi",
    "lt_partial",
    "minimal_multi_tuples",
    "minimal_partial_tuples",
]

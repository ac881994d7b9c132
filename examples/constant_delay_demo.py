"""Measuring the two phases: linear preprocessing, constant delay.

Runs the complete-answer enumerator (Theorem 4.1) and the minimal partial
answer enumerator (Theorem 5.2) on office databases of growing size and
prints preprocessing time, answer counts and the maximum / mean delay
between consecutive answers.  The delays should stay flat as the database
grows while preprocessing grows roughly linearly.

Run with:  python examples/constant_delay_demo.py
"""

import time

from repro.core import CompleteAnswerEnumerator, MinimalPartialAnswerEnumerator
from repro.obs.trace import DelayStats
from repro.workloads import generate_office_database, office_omq


def main() -> None:
    omq = office_omq()
    sizes = (500, 1000, 2000, 4000)

    for title, enumerator_class in (
        ("Complete answers (Theorem 4.1)", CompleteAnswerEnumerator),
        ("Minimal partial answers (Theorem 5.2 / Algorithm 1)", MinimalPartialAnswerEnumerator),
    ):
        print(f"\n{title}\n{'=' * len(title)}")
        print(
            f"{'researchers':>11}  {'facts':>6}  {'preprocessing':>13}  "
            f"{'answers':>7}  {'mean delay':>10}  {'max delay':>10}"
        )
        for size in sizes:
            database = generate_office_database(size, seed=size)
            start = time.perf_counter()
            enumerator = enumerator_class(omq, database)
            preprocessing = time.perf_counter() - start
            delays = DelayStats()
            last = time.perf_counter()
            for _ in enumerator.enumerate():
                now = time.perf_counter()
                delays.observe(now - last)
                last = now
            mean = delays.total / delays.count
            print(
                f"{size:>11}  {len(database):>6}  "
                f"{preprocessing * 1000:>10.1f} ms  {delays.count:>7}  "
                f"{mean * 1e6:>7.1f} µs  {delays.max * 1e6:>7.1f} µs"
            )


if __name__ == "__main__":
    main()

"""Set-up that a workload pays once per fresh process.

Run as a script, ``python3 perfbench/warmup.py <workload>`` is one set-up
probe: it prints the seconds from before ``import apnspectra`` until every
lazy cache the workload reads is warm.  ``run.py`` starts several probes and
reports their median as ``setup_s``.  This module imports nothing from the
package at import time, so the probe's clock starts before the package and
numpy are loaded.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

# What a workload's first call would otherwise build lazily: the field
# degrees whose tables it reads, whether it enters through the CLI, and
# whether it runs the even-m APN criterion, which needs the obstruction set
# of every Frobenius step k the generator can draw.
SETUP = {
    "spectrum-m6": ((6,), True, False),
    "triangle-m5": ((5,), False, False),
    "apn-m6": ((6,), True, True),
}


def coprime_steps(m: int) -> list[int]:
    """Frobenius steps k with gcd(k, m) = 1, the ones every family accepts."""
    return [k for k in range(1, m) if math.gcd(k, m) == 1]


def warm_caches(degrees, cli: bool, criterion: bool) -> None:
    """Import the package and build the lazy caches for ``degrees``."""
    import apnspectra  # noqa: F401
    from apnspectra import families
    from apnspectra.gf2m import field

    if cli:
        import apnspectra.cli  # noqa: F401
    for m in degrees:
        f = field(m)
        f.mul_table
        f.scalar_mul
        f.trace_masks
        f.parity_table
        for e in range(m):
            f.frobenius_table(e)
        if criterion and m % 2 == 0:
            for k in coprime_steps(m):
                families.kernel_obstruction_set(f, k)


def timed_setup(workload: str) -> float:
    """Seconds to import the package and warm the workload's caches.

    Meaningful only in a process that has not imported the package yet.
    """
    start = time.perf_counter()
    warm_caches(*SETUP[workload])
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(repr(timed_setup(sys.argv[1])))

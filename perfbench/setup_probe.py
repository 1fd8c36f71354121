"""Set-up of a fresh process: import the library, solve every rank's constraints.

Run as a script it prints ``READY <json>`` the moment the library is ready,
so the parent can time the whole span from interpreter start.  The JSON
holds the import time and, for each rank, the cold solve time and the peak
resident memory reached once that rank is solved.
"""

from __future__ import annotations

import json
import resource
import time


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup() -> dict:
    t0 = time.perf_counter()
    import filiform_ce
    from filiform_ce.family import N_RANGE

    rows = {"import": {"s": time.perf_counter() - t0, "rss_mb": peak_rss_mb()}}
    for n in N_RANGE:
        t = time.perf_counter()
        filiform_ce.solve_leibniz_constraints(n)
        rows[f"n{n}"] = {"s": time.perf_counter() - t, "rss_mb": peak_rss_mb()}
    return rows


if __name__ == "__main__":
    print("READY " + json.dumps(setup()), flush=True)

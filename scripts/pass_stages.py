#!/usr/bin/env python3
"""Wall time per stage of a pass of a benchmark workload, in ms per pass.

Runs each pass (see ``workload_passes.py``) with ``--timing`` and sums the
stage times of the ``<out-csv>.manifest.json`` sidecars that its calls
write.  The columns are the program's own ``harness.STAGES``; the harness
docstring says what each stage times and which stages nest; ``pass`` is the
whole pass.  Times are printed to the microsecond, so a stage of a few
microseconds a pass (``image-corpus`` releases) reads above zero.  Each time
is put on the host-speed scale of ``perfbench/hostspeed.py``: scaled by
REFERENCE_S over the mean time of its reference kernel, run WINDOW times
before and after each pass.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/pass_stages.py --workload gaussian-grid --passes 5
"""

import json
import statistics
import time
from collections import Counter
from pathlib import Path

from workload_passes import hostspeed, run_pass, spdprivacy, workload_calls

NAMES = ("pass",) + spdprivacy.harness.STAGES


def timed_pass(calls) -> list[int]:
    """ns of one pass, then of each stage, summed over the calls' sidecars."""
    start = time.perf_counter_ns()
    run_pass(calls, "--timing")
    elapsed = time.perf_counter_ns() - start
    totals = Counter()
    for call in calls:
        totals.update(json.loads(Path(f"{call.out_csv}.manifest.json").read_text())["stages_ns"])
    return [elapsed] + [totals[name] for name in NAMES[1:]]


def reference_window() -> list[float]:
    return [hostspeed.reference_seconds() for _ in range(hostspeed.WINDOW)]


def main():
    rows = []
    columns = "pass " + " ".join(f"{name}_ms" for name in NAMES)
    with workload_calls(__doc__, columns, "--timing") as (args, calls):
        before = reference_window()
        for index in range(1, args.passes + 1):
            times = timed_pass(calls)
            after = reference_window()
            scale = 1e-6 * hostspeed.REFERENCE_S / statistics.fmean(before + after)
            rows.append([scale * ns for ns in times])
            print(f"{index} " + " ".join(f"{ms:.3f}" for ms in rows[-1]))
            before = after
    print("median " + " ".join(f"{statistics.median(col):.3f}" for col in zip(*rows)))


if __name__ == "__main__":
    main()

"""Compare two sets of end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py BASE HEAD

BASE and HEAD are results files written by ``run.py``, or directories
of them (their repeats are pooled per workload and metric).  One row is
printed per workload x metric found on both sides:

* ``REGRESSION`` -- HEAD's median is worse than BASE's by more than the
  metric's bound;
* ``unresolved`` -- either side's IQR is wider than the bound, so the
  medians cannot be told apart, unless every HEAD repeat beats every
  BASE repeat (then ``improved``);
* ``improved`` / ``ok`` -- better by more than the bound, or within it;
* ``info`` -- a per-layer metric, which has no bound.

A ``setup_s`` change under ``SETUP_FLOOR_SECONDS`` is never a
regression: a set-up of a few milliseconds moves by more than its
bound from run to run.  Exit code 1 when any row is a regression.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import iqr

Key = Tuple[str, str]
SETUP_FLOOR_SECONDS = 0.05


def load(path: Path) -> Dict[Key, dict]:
    """(workload, metric) -> {"better", "bound", "values"} pooled over files."""
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    pooled: Dict[Key, dict] = {}
    for file in files:
        for workload, result in json.loads(file.read_text())["workloads"].items():
            for name, entry in result["metrics"].items():
                row = pooled.setdefault((workload, name), {
                    "better": entry["better"],
                    "bound": entry.get("bound"),
                    "values": [],
                })
                row["values"].extend(entry["values"])
    return pooled


def classify(base: List[float], head: List[float], better: str, bound: Optional[float]) -> Tuple[float, str]:
    """(relative change toward worse, status) for one metric."""
    b, h = statistics.median(base), statistics.median(head)
    sign = 1.0 if better == "lower" else -1.0
    if b:
        worse = sign * (h - b) / abs(b)
    else:
        worse = 0.0 if h == b else math.copysign(math.inf, sign * (h - b))
    if bound is None:
        return worse, "info"
    beats = max(head) < min(base) if better == "lower" else min(head) > max(base)
    spread = max(
        iqr(base) / abs(b) if b else 0.0,
        iqr(head) / abs(h) if h else 0.0,
    )
    if spread > bound:
        return worse, "improved" if beats else "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    return worse, "improved" if -worse > bound else "ok"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(arg)) for arg in argv)
    regressions = 0
    print(f"{'workload':16s} {'metric':32s} {'base':>12s} {'head':>12s} {'worse':>8s} {'bound':>6s}  status")
    for key in sorted(set(base) & set(head)):
        b, h = base[key], head[key]
        bound = b["bound"]
        if key[1] == "setup_s":
            bound = max(bound, SETUP_FLOOR_SECONDS / statistics.median(b["values"]))
        worse, status = classify(b["values"], h["values"], b["better"], bound)
        regressions += status == "REGRESSION"
        bound = "-" if bound is None else f"{bound:.3g}"
        print(
            f"{key[0]:16s} {key[1]:32s} {statistics.median(b['values']):12.5g} "
            f"{statistics.median(h['values']):12.5g} {worse:+8.2%} {bound:>6s}  {status}"
        )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

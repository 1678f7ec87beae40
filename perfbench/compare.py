"""Compare two benchmark artifacts (``.perfbench-work/*.json``).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each end-to-end metric of both runs, the change as a share of the
base and the bound ``BENCHMARK.json`` fixes for it.  Refuses (exit 2) to
compare runs from hosts with a different ``cpu_count``, or of different
workloads: their numbers do not measure the same thing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in argv)
    if base["env"]["cpu_count"] != new["env"]["cpu_count"]:
        print(f"refusing: base ran on {base['env']['cpu_count']} CPUs, new "
              f"on {new['env']['cpu_count']}", file=sys.stderr)
        return 2
    if base["env"]["workload"] != new["env"]["workload"]:
        print("refusing: the artifacts are of different workloads",
              file=sys.stderr)
        return 2
    manifest = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    declared = {m["name"]: m for m in
                json.loads(manifest.read_text(encoding="utf-8"))["end_to_end"]}
    worse = 0
    for name, metric in declared.items():
        old = base["end_to_end"][name]["value"]
        now = new["end_to_end"][name]["value"]
        change = (now - old) / old if old else 0.0
        regression = -change if metric["better"] == "higher" else change
        flag = "WORSE" if regression > metric["bound"] else ""
        worse += bool(flag)
        print(f"{name:10s} {old:12.4f} -> {now:12.4f} {metric['unit']:4s} "
              f"{change:+8.2%} (bound {metric['bound']:.0%}) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

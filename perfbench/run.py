"""StateFlow benchmark: one command, every end-to-end metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload txn-transfer --seed 1 --seconds 10 \\
        --trace 0

Workloads (``perfbench/sfbench/workloads.py`` says why each exists):
``txn-transfer``, ``rw-zipf-durable`` (real worker processes on the wall
clock) and ``sim-mixed-views`` (the deterministic simulator).

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` measures the same untraced window, then a second
window with every layer's entry points wrapped, and reports the
per-layer metrics (with the traced/untraced throughput as the tracing
overhead).  Either way the outputs are checked; a failed check makes the
run report ``"correct": false`` and exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller artifact (host
``env`` block, per-metric bases, sample counts, exact-count marks) is
written to ``.perfbench-work/<workload>-seed<seed>-trace<t>.json``, and
the traced run's spans to ``.perfbench-work/spans-<workload>.csv``.
Compare two artifacts with ``python3 perfbench/compare.py BASE NEW``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    from sfbench import workloads  # needs the program on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    env = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "spawner": spec.substrate,
        "clock": "wall" if spec.substrate == "process" else "virtual",
        "loadavg_start": os.getloadavg()[0],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    WORKDIR.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), WORKDIR)

    if args.trace:
        table, catalogue = result["per_layer"], workloads.PER_LAYER
    else:
        table, catalogue = result["end_to_end"], workloads.END_TO_END
    metrics = {name: {"value": table[name], "unit": catalogue[name][0]}
               for name in catalogue}
    artifact = {
        "env": env,
        "workload": {"name": spec.name, "why": why.get(spec.name),
                     "substrate": spec.substrate, "mix": spec.mix,
                     "records": spec.records,
                     "distribution": spec.distribution,
                     "durable": spec.durable, "views": spec.views},
        "correct": result["correct"],
        "problems": result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": {name: {"value": result["end_to_end"][name],
                              "unit": unit, "what": what}
                       for name, (unit, what)
                       in workloads.END_TO_END.items()},
        "detail": result["detail"],
        "notes": [
            "repro.workloads.WorkloadDriver schedules each arrival "
            "relative to an already-late loop: on the wall clock it sends "
            "~12% fewer requests than asked (6856-7075 of 8000 at 1000 rps "
            "for 8 s), so this benchmark uses its own generators.",
        ],
    }
    if args.trace:
        exact = set(result.get("exact", ()))
        artifact["per_layer"] = {
            name: {"value": table[name], "unit": unit, "layer": layer,
                   "base": base, "exact": name in exact}
            for name, (unit, layer, base) in workloads.PER_LAYER.items()}
        tracer = result["tracer"]
        spans = WORKDIR / f"spans-{args.workload}.csv"
        tracer.write(str(spans))
        artifact["spans"] = {"file": str(spans.relative_to(ROOT)),
                             "count": tracer.span_count()}
    out = WORKDIR / (f"{args.workload}-seed{args.seed}-"
                     f"trace{args.trace}.json")
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:28s} {metric['value']:14.4f} "
              f"{metric['unit']}")
    # A run that fails a check reports the failure, not numbers.
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics if result["correct"] else {}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

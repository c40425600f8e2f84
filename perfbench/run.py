"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload infer-small --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate run with spans around each layer's entry points).  The
last line of standard output is one JSON object; the full record, with
host facts and notes, goes to ``perfbench/out/``.  The exit code is 1 if
any output disagreed with the oracle or a resource leaked.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: the workloads BENCHMARK.json lists
WORKLOAD_NAMES = ("infer-small", "serve-poisson", "infer-paper-process")
#: runnable by hand but not listed: on a shared 2-vCPU host its timings
#: spread beyond any allowed bound across runs (README.md)
MANUAL_WORKLOADS = ("train-paper",)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + MANUAL_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from measure import stop_resource_tracker

    try:
        return measure_and_report(args)
    finally:
        stop_resource_tracker()


def measure_and_report(args) -> int:
    from measure import host_facts, loadavg
    from spans import self_time_by_name
    from workloads import END_TO_END, PER_LAYER, run_workload

    load_before = loadavg()
    t0 = time.perf_counter()
    out, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wall = time.perf_counter() - t0
    table = PER_LAYER if args.trace else END_TO_END
    source = out.layers if args.trace else out.metrics
    metrics = {name: {"value": source[name], "unit": unit} for name, unit, _ in table}
    failed = len(out.failures)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall,
        "host": host_facts(), "loadavg_before": load_before, "loadavg_after": loadavg(),
        "attempted": out.attempted, "failed": failed,
        "fail_frac": failed / out.attempted, "failures": out.failures[:50],
        "metrics": metrics, "notes": out.notes,
    }
    if args.trace:
        record["self_time_s"] = self_time_by_name(tracer.spans)
        record["spans_file"] = str((OUT_DIR / f"spans-{tag}.json").relative_to(ROOT))
        tracer.dump(str(OUT_DIR / f"spans-{tag}.json"))
    with open(OUT_DIR / f"record-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        label = out.notes.get(name.replace("_ms_tail", "_tail"))
        note = f"  ({label})" if name.endswith("_tail") and label else ""
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{'fail_frac':36s} {record['fail_frac']:14.6g} fraction  ({failed} of {out.attempted})")
    if args.trace:
        for name, secs in record["self_time_s"].items():
            print(f"self {name:31s} {secs * 1e3:14.6g} ms")
    for msg in out.failures[:10]:
        print(f"FAILED: {msg}")
    print(f"host: {json.dumps(record['host'])}")
    print(json.dumps({
        "correct": failed == 0, "attempted": out.attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload over several seeds and print one report.

    python3 perfbench/report.py [--seeds 1-10] [--write perfbench/baseline.json]

Run from the repository root. For each seed in turn this makes one
end-to-end run of every workload, so that a change in the host's speed
over the minutes a report takes reaches every workload alike; then one
traced run of each workload on the first seed. Each run is its own
process (``run.py``) and measures for the ``run_seconds`` of
``BENCHMARK.json``. It then prints:

- per workload: the median over seeds of every end-to-end metric with its
  unit, the quartile spread as a share of the median, and fail_ratio
  (failed calls over attempted calls);
- the per-layer metrics of each traced run;
- two paper figures derived from them, not gated: the Table 3 speedup
  cell (ltds-gq-h3 topk_s over gq-h3 topk_s) and the Fig 10-style phase
  split of the traced gq-h3 call.

``--write`` stores all of it with the environment as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{' '.join(cmd)} exited with {p.returncode}")
    return json.loads(lines[-1])


def _spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else 0.0


def _environment() -> dict:
    import numpy
    import pandas
    import pyspark

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    from run import SPARK_CONF

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "spark_master": f"local[{min(4, len(os.sched_getaffinity(0)))}]",
        "spark_conf": SPARK_CONF,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    ap.add_argument("--write", type=Path, default=None)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    t_start = time.time()
    all_runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for s in seeds:
        for name in WORKLOADS:
            all_runs[name].append(_run(name, s, seconds, 0))
        print(f"[{time.time() - t_start:7.1f} s] seed {s} done", file=sys.stderr)
    layers = {name: {k: v["value"] for k, v in _run(name, seeds[0], seconds, 1)["metrics"].items()}
              for name in WORKLOADS}

    e2e: dict[str, dict] = {}
    for name, runs in all_runs.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        e2e[name] = {"runs": len(runs), "attempted": attempted, "failed": failed,
                     "fail_ratio": failed / attempted, "metrics": {}}
        for metric, first in runs[0]["metrics"].items():
            xs = [r["metrics"][metric]["value"] for r in runs]
            e2e[name]["metrics"][metric] = {
                "median": statistics.median(xs), "spread": _spread(xs),
                "unit": first["unit"], "values": xs,
            }

    print(f"End-to-end, median over seeds {args.seeds} (spread = quartile distance / median):")
    for name, r in e2e.items():
        print(f"{name}: {r['runs']} runs, {r['attempted']} calls")
        for metric, m in r["metrics"].items():
            print(f"  {metric:14s} {m['median']:12.4f} {m['unit']:6s} spread {m['spread']:.3f}")
        print(f"  {'fail_ratio':14s} {r['fail_ratio']:12.4f} ratio  ({r['failed']} of {r['attempted']})")

    print(f"\nPer layer, traced run on seed {seeds[0]}:")
    names = list(layers)
    print(f"  {'metric':40s}" + "".join(f"{n:>16s}" for n in names))
    for metric in layers[names[0]]:
        print(f"  {metric:40s}" + "".join(f"{layers[n].get(metric, 0):16.6g}" for n in names))

    derived: dict[str, object] = {}
    if "gq-h3" in e2e and "ltds-gq-h3" in e2e:
        ratio = (e2e["ltds-gq-h3"]["metrics"]["topk_s"]["median"]
                 / e2e["gq-h3"]["metrics"]["topk_s"]["median"])
        derived["table3_speedup_gq_h3"] = ratio
        print(f"\nTable 3 cell, GQ-lite h=3: LTDS stand-in / IPPV topk_s = {ratio:.2f}x")
    if "gq-h3" in layers:
        m = layers["gq-h3"]
        split = {
            "bounds": m["graphs.cores.bounds_s"],
            "propose": m["core.fw.fw_s"] + m["core.decompose.tgd_s"] + m["core.decompose.dsg_s"],
            "prune": m["core.prune.prune_s"],
            "densest check": m["flow.networks.is_densest_s"],
            "verify": m["core.verify.verify_s"],
            "exact split": m["flow.networks.densest_sub_s"],
        }
        total = sum(split.values())
        derived["fig10_phase_split_gq_h3_s"] = split
        print("Fig 10-style phase split, traced gq-h3 call:")
        for phase, sec in split.items():
            print(f"  {phase:14s} {sec:8.3f} s  {sec / total:6.1%}")

    if args.write:
        args.write.write_text(json.dumps({
            "seeds": seeds, "run_seconds": seconds, "environment": _environment(),
            "end_to_end": e2e, "per_layer_traced_first_seed": layers, "derived": derived,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time exact top-k LhCDS discovery on one benchmark workload.

    python3 perfbench/run.py --workload gq-h3 --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
The run generates the workload input from ``--seed`` (see
``workloads.py``), sets it up several times, then calls the workload's
public entry point one call at a time until ``--seconds`` have passed
(always at least once) and checks every result against the stored
flow-exact reference. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced call (see ``spans.py``).
Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import K, WORKLOADS, base_edges, fingerprint, relabel  # noqa: E402

# set-ups per run: a driver set-up takes under 0.1 s, a Spark one (session
# restart) about 0.6 s
SETUPS = {"driver": 21, "flow_exact": 21, "spark": 5}
JVM_WARMUP_ROUNDS = 15
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def _import_program(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}/repro; run from the repository root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# -------------------------------------------------------------------- Spark
def _spark_submit_args(tmp: Path) -> str:
    cores = min(4, len(os.sched_getaffinity(0)))
    java = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    return (
        f"--master local[{cores}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.ui.retainedJobs=100000 --conf spark.ui.retainedStages=100000 "
        f"--conf spark.local.dir={shlex.quote(str(tmp))} "
        f"--driver-java-options {shlex.quote(java)} pyspark-shell"
    )


def _start_spark():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    return b.getOrCreate()


def _warm_jvm(spark) -> float:
    """Run a fixed number of small generic DataFrame jobs and return their time.

    A fresh JVM runs its first few hundred Spark jobs slowly while the JIT
    compiles; ippv submits hundreds of small jobs, so its first call in a
    session takes about 1.6x as long as later ones. These rounds (checkpoint,
    aggregate, collect, anti and semi join, as ippv's core peeling does)
    get past that without calling the program.
    """
    from pyspark.sql import functions as F

    t0 = time.perf_counter()
    df = spark.range(3000).select(
        (F.col("id") % 97).alias("v"), F.floor(F.col("id") / 3).alias("iid")
    )
    for _ in range(JVM_WARMUP_ROUNDS):
        a = df.localCheckpoint(eager=True)
        deg = a.groupBy("v").agg(F.count("*").alias("deg"))
        low = deg.agg(F.min("deg").alias("m")).collect()[0]["m"]
        peel = spark.createDataFrame(deg.filter(F.col("deg") <= low).select("v").toPandas())
        kept = a.join(peel, "v", "anti").join(a.select("iid").distinct(), "iid", "semi")
        kept.localCheckpoint(eager=True).count()
    return time.perf_counter() - t0


def _stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ------------------------------------------------------------------ runners
class Runner:
    """Sets up a workload input and calls its timed entry point."""

    def __init__(self, w, seed: int, ref: dict) -> None:
        self.w, self.seed, self.ref = w, seed, ref
        self.spark = None
        self.input_error: str | None = None

    def setup(self, first: bool) -> None:
        """One set-up: (Spark session,) input generation, (input DataFrame)."""
        from reference import check_input

        if self.w.path == "spark":
            if not first:
                self.spark.stop()
            self.spark = _start_spark()
        self.base = base_edges(self.w)
        self.input_error = check_input(self.ref, fingerprint(self.base))
        self.variant = None
        self.prepare(0)

    def prepare(self, variant: int) -> None:
        """Make relabelling ``variant`` of the seed the next call's input."""
        if variant == self.variant:
            return
        self.inp = relabel(self.base, self.seed, variant)
        if self.w.path == "spark":
            self.edges = self.spark.createDataFrame(self.inp.edges).localCheckpoint(eager=True)
        else:
            self.edges = self.inp.edges
        self.variant = variant

    def call(self, tracer=None):
        """One timed call; returns (results, LocalGraph or None)."""
        span = tracer.span if tracer else (lambda name, group=None: nullcontext())
        import repro.core.ippv as ippv_mod

        if self.w.path == "spark":
            with span("entry.ippv", "graphs.cliques"):
                return ippv_mod.ippv(self.spark, self.edges, h=self.w.h, k=K), None
        import repro.graphs.local as local_mod

        with span("entry.build"):
            lg = local_mod.local_from_pandas(self.edges).with_cliques(self.w.h)
        if self.w.path == "driver":
            with span("entry.ippv_local"):
                return ippv_mod.ippv_local(lg, k=K), lg
        import repro.baselines.flow_exact as fe_mod

        with span("entry.flow_exact"):
            return fe_mod.flow_exact_lhcds(lg, k=K), lg

    def psi(self, lg) -> int:
        if lg is None:
            import repro.graphs.local as local_mod

            lg = local_mod.local_from_pandas(self.inp.edges).with_cliques(self.w.h)
        return lg.instance_count()

    def close(self) -> None:
        if self.spark is not None:
            _stop_spark(self.spark)
            self.spark = None


class Calls:
    """Closed-loop call log: durations and failures."""

    def __init__(self, runner: Runner) -> None:
        self.r = runner
        self.times: list[float] = []
        self.failed = 0
        self.last_lg = None

    def one(self, tracer=None, variant: int = 0) -> tuple[float, list | None]:
        from reference import check_psi, check_result

        self.last_lg = None
        self.r.prepare(variant)
        t0 = time.perf_counter()
        try:
            res, lg = self.r.call(tracer)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.times.append(dt)
            self.failed += 1
            return dt, None
        dt = time.perf_counter() - t0
        self.times.append(dt)
        problem = (
            self.r.input_error
            or check_result(self.r.ref, res, self.r.inp.to_base)
            or check_psi(self.r.ref, self.r.psi(lg))
        )
        if problem:
            print(f"perfbench: wrong result: {problem}", file=sys.stderr)
            self.failed += 1
        self.last_lg = lg
        return dt, res


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n > 10:
        return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} calls"
    return xs[-1], f"max of {n} calls: fewer than 11, so no percentile has 10 beyond it"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- main
def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    w = WORKLOADS[args.workload]
    from reference import load

    ref = load(w.reference)

    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = _spark_submit_args(tmp)
    tempfile.tempdir = str(tmp)

    runner = Runner(w, args.seed, ref)
    try:
        setup_times = []
        for i in range(SETUPS[w.path]):
            t0 = time.perf_counter()
            runner.setup(first=i == 0)
            setup_times.append(time.perf_counter() - t0)
        calls = Calls(runner)
        if args.trace:
            metrics = _traced(runner, calls, w)
        else:
            metrics = _timed(runner, calls, w, args.seconds, setup_times)
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(calls.times)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": calls.failed == 0,
                "attempted": attempted,
                "failed": calls.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _timed(runner: Runner, calls: Calls, w, seconds: float, setup_times: list[float]) -> dict:
    if w.path == "spark":
        print(f"  JVM warm-up {_warm_jvm(runner.spark):.3f} s")
    deadline = time.perf_counter() + seconds
    while not calls.times or time.perf_counter() < deadline:
        calls.one(variant=len(calls.times))
    tail, tail_note = _tail(calls.times)
    n = len(calls.times)
    print(f"workload {w.name}: {w.path} path, h={w.h}, k={K}, seed {runner.seed}, {n} timed calls")
    print("  call times " + " ".join(f"{t:.3f}" for t in calls.times) + " s")
    print(f"  topk_s_tail is the {tail_note}")
    print(f"  setup_s is the median of {len(setup_times)} set-ups")
    print(f"  fail_ratio {calls.failed / n:.3f} ({calls.failed} of {n} calls wrong or raised)")
    return {
        "topk_s": (statistics.median(calls.times), "s"),
        "topk_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _traced(runner: Runner, calls: Calls, w) -> dict:
    from spans import Tracer, layer_metrics

    if w.path == "spark":
        _warm_jvm(runner.spark)  # as in the timed run
    # the first call runs cold; only the two after it are compared
    rss_before = _peak_rss_mb()
    calls.one()
    rss_growth = _peak_rss_mb() - rss_before
    t_plain, _ = calls.one()

    sc = runner.spark.sparkContext if runner.spark is not None else None
    tracer = Tracer(sc)
    tracer.install()
    try:
        t_traced, res = calls.one(tracer)
    finally:
        tracer.uninstall()
    for target in tracer.absent:
        print(f"trace: span absent (not found): {target}", file=sys.stderr)
    if tracer.hook_errors:
        print(f"trace: {tracer.hook_errors} counter reads failed", file=sys.stderr)
    print(f"workload {w.name}: traced call {t_traced:.3f} s, untraced {t_plain:.3f} s")
    return layer_metrics(
        tracer,
        t_plain=t_plain,
        t_traced=t_traced,
        rss_growth_mb=rss_growth,
        psi=runner.psi(calls.last_lg),
        outputs=len(res) if res is not None else 0,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

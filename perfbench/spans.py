"""Per-layer spans recorded from outside the program.

The traced run replaces public functions with timing wrappers, looking
each one up where its caller does: ``repro.core.ippv`` imports
``is_densest`` with ``from ... import``, so the wrapper goes on
``repro.core.ippv.is_densest``, not on ``repro.flow.networks``. Targets
come from ``WRAPS``; a module or name that no longer exists is listed as
an absent span and the run goes on without it. ``uninstall`` restores
every original.

Each span records its name, start, end, parent span and counters taken
from the call's arguments and return value, so self times (a span's
duration minus its children's) and ratios can be derived afterwards by
``layer_metrics``. Around Spark-layer calls the wrapper also sets the
Spark job group to the layer name, which lets ``statusTracker`` count
each layer's jobs.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

GROUP_PREFIX = "perfbench."
# wrapped spans whose self time is the IPPV driver loop, not a layer's work
NOT_LAYERS = {"core.ippv.instances"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------- counters
# Each hook reads counters from (span, args, kwargs, return value).
def _prune_local(s, a, kw, out):
    s.counters["work"] = len(a[1] if len(a) > 1 else kw["work"])
    s.counters["kept"] = len(out)


def _prune_spark(s, a, kw, out):
    lg = a[2] if len(a) > 2 else kw["lg"]
    s.counters["work"] = len(lg.vertices)
    s.counters["kept"] = len(out)


def _reduce(s, a, kw, out):
    s.counters["decided"] = int(out[0] == "decided")


def _truth(s, a, kw, out):
    s.counters["true"] = int(bool(out))


def _count(s, a, kw, out):
    s.counters["len"] = len(out)


def _dinic(s, a, kw, out):
    s.counters["arcs"] = len(a[0].to) // 2


# (target, span name, counter hook, Spark job group or None)
WRAPS: list[tuple[str, str, object, str | None]] = [
    ("repro.core.ippv:fw_local", "core.fw", None, None),
    ("repro.core.ippv:tentative_gd_local", "core.decompose.tgd", None, None),
    ("repro.core.ippv:derive_stable_groups", "core.decompose.dsg", _count, None),
    ("repro.core.ippv:prune_local", "core.prune", _prune_local, None),
    ("repro.core.ippv:is_densest", "flow.networks.is_densest", _truth, None),
    ("repro.core.ippv:verify_fast", "core.verify", _truth, None),
    ("repro.core.ippv:densest_sub", "flow.networks.densest_sub", None, None),
    ("repro.core.ippv:instance_core_numbers_local", "graphs.cores", None, None),
    ("repro.core.ippv:candidate_density", "core.ippv.candidate_density", None, None),
    ("repro.core.ippv:instances_to_local", "graphs.cliques.collect", None, "graphs.cliques"),
    ("repro.core.ippv:instance_core_numbers", "graphs.cores", None, "graphs.cores"),
    ("repro.core.ippv:fw_spark", "core.fw", None, "core.fw"),
    ("repro.core.ippv:tentative_gd_spark", "core.decompose.tgd", None, "core.decompose"),
    ("repro.core.ippv:prune_spark", "core.prune", _prune_spark, "core.prune"),
    ("repro.core.ippv:ippv_instances", "core.ippv.instances", None, None),
    ("repro.core.verify:reduce_candidate", "core.verify.reduce", _reduce, None),
    ("repro.core.verify:derive_compact", "flow.networks.derive_compact", None, None),
    ("repro.baselines.flow_exact:exact_decomposition", "flow.networks.exact_decomposition", _count, None),
    ("repro.baselines.flow_exact:derive_compact", "flow.networks.derive_compact", None, None),
    ("repro.baselines.flow_exact:is_densest", "flow.networks.is_densest", _truth, None),
    ("repro.flow.networks:densest_sub", "flow.networks.densest_sub", None, None),
    ("repro.flow.dinic:Dinic.max_flow", "flow.dinic.max_flow", _dinic, None),
    ("repro.flow.dinic:Dinic.max_cut_source_side", "flow.dinic.cut", None, None),
    ("repro.graphs.local:LocalGraph.instances_within", "graphs.local.instances_within", None, None),
    ("repro.graphs.local:LocalGraph.components", "graphs.local.components", None, None),
    ("repro.graphs.local:LocalGraph.enumerate_cliques", "graphs.cliques.enumerate", None, None),
    ("repro.graphs.local:LocalGraph.__post_init__", "graphs.local.build", None, None),
]


class Tracer:
    def __init__(self, spark_context=None) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.sc = spark_context
        self.absent: list[str] = []
        self.hook_errors = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str, group: str | None = None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        prev_group = self._set_group(group) if group and self.sc else None
        self.stack.append(idx)
        s = Span(name, time.perf_counter(), parent)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            if group and self.sc:
                self.sc.setLocalProperty("spark.jobGroup.id", prev_group)

    def _set_group(self, group: str) -> str | None:
        prev = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setJobGroup(GROUP_PREFIX + group, group)
        return prev

    def spark_jobs(self, group: str) -> int:
        if self.sc is None:
            return 0
        return len(self.sc.statusTracker().getJobIdsForGroup(GROUP_PREFIX + group))

    # --------------------------------------------------------- wrappers
    def _wrap(self, fn, name: str, hook, group: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not tracer.stack:  # outside the benchmark's entry-point spans
                return fn(*a, **kw)
            with tracer.span(name, group) as s:
                out = fn(*a, **kw)
            if hook is not None:
                try:
                    hook(s, a, kw, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.hook_errors += 1
            return out

        return wrapper

    def install(self) -> None:
        for target, name, hook, group in WRAPS:
            modname, _, path = target.partition(":")
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            setattr(owner, attr, self._wrap(fn, name, hook, group))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ------------------------------------------------------------------ metrics
class _View:
    """Queries over a finished span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.kids: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.kids.setdefault(s.parent, []).append(i)

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p is not None:
            yield p
            p = self.spans[p].parent

    def root(self, i: int) -> Span:
        *_, last = [i, *self.ancestors(i)]
        return self.spans[last]

    def self_time(self, i: int) -> float:
        return self.spans[i].dur - sum(self.spans[c].dur for c in self.kids.get(i, ()))

    def incl(self, name: str) -> float:
        """Duration of ``name`` spans, not counting ones nested in another."""
        return sum(
            self.spans[i].dur
            for i in self.named(name)
            if all(self.spans[a].name != name for a in self.ancestors(i))
        )

    def selfs(self, *names: str) -> float:
        return sum(self.self_time(i) for n in names for i in self.named(n))

    def attributed(self) -> float:
        """Time inside layer spans, each counted once (outermost only).

        The benchmark's ``entry.*`` spans and the Spark driver loop
        (``core.ippv.instances``) are not layers: time that only they cover
        is what no wrapped function accounts for.
        """
        def layer(i: int) -> bool:
            name = self.spans[i].name
            return not name.startswith("entry.") and name not in NOT_LAYERS

        return sum(
            s.dur for i, s in enumerate(self.spans)
            if layer(i) and not any(layer(a) for a in self.ancestors(i))
        )

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str, key: str) -> int:
        return sum(self.spans[i].counters.get(key, 0) for i in self.named(name))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tr: Tracer, *, t_plain: float, t_traced: float, rss_growth_mb: float, psi: int, outputs: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).

    Times are seconds of the traced call; a layer that did not run, or
    whose functions are absent, reads 0.
    """
    v = _View(tr.spans)
    flows = v.calls("flow.dinic.max_flow")
    arcs = [tr.spans[i].counters.get("arcs", 0) for i in v.named("flow.dinic.max_flow")]
    reduce_calls = v.calls("core.verify.reduce")
    verify_calls = v.calls("core.verify")
    densest_calls = v.calls("flow.networks.is_densest")
    fe_roots = v.named("entry.flow_exact")
    fe_decomp = [
        i for i in v.named("flow.networks.exact_decomposition")
        if v.root(i).name == "entry.flow_exact"
    ]
    m = {
        "graphs.local.build_s": (v.selfs("entry.build", "graphs.local.build"), "s"),
        "graphs.local.instances": (psi, "count"),
        "graphs.local.instances_within_s": (v.incl("graphs.local.instances_within"), "s"),
        "graphs.local.instances_within.calls": (v.calls("graphs.local.instances_within"), "count"),
        "graphs.local.components_s": (v.incl("graphs.local.components"), "s"),
        # driver-side enumeration, or on Spark the ippv time no child covers
        "graphs.cliques.enumerate_s": (
            v.incl("graphs.cliques.enumerate") + v.selfs("entry.ippv"), "s"),
        "graphs.cliques.collect_s": (v.incl("graphs.cliques.collect"), "s"),
        "graphs.cliques.spark_jobs": (tr.spark_jobs("graphs.cliques"), "count"),
        "graphs.cores.bounds_s": (v.incl("graphs.cores"), "s"),
        "graphs.cores.spark_jobs": (tr.spark_jobs("graphs.cores"), "count"),
        "core.fw.fw_s": (v.incl("core.fw"), "s"),
        "core.fw.rounds": (v.calls("core.fw"), "count"),
        "core.fw.spark_jobs": (tr.spark_jobs("core.fw"), "count"),
        "core.decompose.tgd_s": (v.incl("core.decompose.tgd"), "s"),
        "core.decompose.dsg_s": (v.incl("core.decompose.dsg"), "s"),
        "core.decompose.groups": (v.total("core.decompose.dsg", "len"), "count"),
        "core.decompose.spark_jobs": (tr.spark_jobs("core.decompose"), "count"),
        "core.prune.prune_s": (v.incl("core.prune"), "s"),
        "core.prune.kept_ratio": (
            _ratio(v.total("core.prune", "kept"), v.total("core.prune", "work")), "ratio"),
        "core.prune.spark_jobs": (tr.spark_jobs("core.prune"), "count"),
        "core.verify.verify_s": (v.incl("core.verify"), "s"),
        "core.verify.reduce_s": (v.incl("core.verify.reduce"), "s"),
        "core.verify.calls": (verify_calls, "count"),
        "core.verify.flow_free_ratio": (
            _ratio(v.total("core.verify.reduce", "decided"), reduce_calls), "ratio"),
        "core.verify.accept_ratio": (_ratio(v.total("core.verify", "true"), verify_calls), "ratio"),
        "flow.networks.is_densest_s": (v.incl("flow.networks.is_densest"), "s"),
        "flow.networks.is_densest.calls": (densest_calls, "count"),
        "flow.networks.is_densest.true_ratio": (
            _ratio(v.total("flow.networks.is_densest", "true"), densest_calls), "ratio"),
        "flow.networks.derive_compact_s": (v.incl("flow.networks.derive_compact"), "s"),
        "flow.networks.derive_compact.calls": (v.calls("flow.networks.derive_compact"), "count"),
        "flow.networks.densest_sub_s": (v.incl("flow.networks.densest_sub"), "s"),
        "flow.networks.densest_sub.calls": (v.calls("flow.networks.densest_sub"), "count"),
        "flow.networks.dinkelbach_iters": (
            sum(1 for i in v.named("flow.dinic.max_flow")
                if tr.spans[i].parent is not None
                and tr.spans[tr.spans[i].parent].name == "flow.networks.densest_sub"),
            "count"),
        # network construction: time in the network functions outside Dinic
        "flow.networks.build_s": (
            v.selfs("flow.networks.is_densest", "flow.networks.derive_compact",
                    "flow.networks.densest_sub"), "s"),
        "flow.networks.exact_decomposition_s": (
            v.incl("flow.networks.exact_decomposition"), "s"),
        "flow.dinic.max_flow_s": (v.incl("flow.dinic.max_flow"), "s"),
        "flow.dinic.cut_s": (v.incl("flow.dinic.cut"), "s"),
        "flow.dinic.flows": (flows, "count"),
        "flow.dinic.arcs": (sum(arcs), "count"),
        "flow.dinic.max_arcs": (max(arcs, default=0), "count"),
        "core.ippv.self_s": (
            v.selfs("entry.ippv_local", "core.ippv.instances")
            + v.incl("core.ippv.candidate_density"), "s"),
        "core.ippv.candidates": (v.calls("core.ippv.candidate_density"), "count"),
        "core.ippv.outputs": (outputs, "count"),
        "core.ippv.flows_per_output": (_ratio(flows, outputs), "ratio"),
        "baselines.flow_exact.verify_s": (
            sum(tr.spans[i].dur for i in fe_roots)
            - sum(tr.spans[i].dur for i in fe_decomp), "s"),
        "baselines.flow_exact.full_flows": (
            sum(1 for i in v.named("flow.networks.derive_compact")
                if v.root(i).name == "entry.flow_exact"), "count"),
        "baselines.flow_exact.blocks": (sum(tr.spans[i].counters.get("len", 0) for i in fe_decomp), "count"),
        "trace.coverage": (_ratio(v.attributed(), t_traced), "ratio"),
        "trace.overhead_s": (t_traced - t_plain, "s"),
        "trace.rss_growth_mb": (rss_growth_mb, "MB"),
        "trace.absent_spans": (len(tr.absent), "count"),
    }
    return m

"""Dataset suite and per-table experiment harnesses.

The suite stands in for the paper's Table-2 real graphs (no network
access; see DESIGN.md section 4 for the substitution rationale). Each
``*-lite`` dataset mirrors one category's *shape* — relative clique
richness and locally-dense structure — at a scale the in-process Spark
session and the pure-Python exact-flow baseline both handle.

Each ``table*_rows`` function regenerates one evaluation table of the
paper as a list of row dicts; ``format_table`` renders them the way the
paper prints them. The jobs in ``jobs/`` and the benchmarks in
``benchmarks/`` are thin wrappers around these functions, and
EXPERIMENTS.md records paper-vs-measured values.
"""
from __future__ import annotations

import time
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import synth_data as sd
from .baselines.flow_exact import flow_exact_lhcds
from .baselines.greedy_cds import greedy_topk_cds
from .core.ippv import ippv, ippv_local
from .graphs import cliques as cq
from .graphs import edgelist as el
from .graphs.local import LocalGraph, local_from_pandas
from .metrics import average_metrics

# --------------------------------------------------------------------------
# dataset suite (bench scale) — paper Table 2 stand-ins
# --------------------------------------------------------------------------
DATASETS: dict[str, Callable[[], pd.DataFrame]] = {
    "HA-lite": lambda: sd.planted_communities_pd(
        n=900, m_background=1500,
        blocks=[(18, 0.9), (15, 0.85), (12, 0.8), (14, 0.6)], seed=11,
    ),
    "GQ-lite": lambda: sd.team_graph_pd(
        n=1800, n_teams=240, team_size=(4, 8), overlap=0.15, seed=12
    ),
    "PP-lite": lambda: sd.planted_communities_pd(
        n=1600, m_background=3200,
        blocks=[(16, 0.85), (14, 0.9), (12, 0.75), (11, 0.8), (10, 0.7), (9, 0.9)],
        seed=13,
    ),
    "PC-lite": lambda: sd.planted_communities_pd(
        n=2200, m_background=3600,
        blocks=[(12, 0.9), (11, 0.85), (10, 0.8), (9, 0.9), (9, 0.75)], seed=14,
    ),
    "WB-lite": lambda: sd.web_graph_pd(n=2400, extra=1200, seed=15),
    "CM-lite": lambda: sd.team_graph_pd(
        n=2600, n_teams=380, team_size=(3, 7), overlap=0.10, seed=16
    ),
    "EP-lite": lambda: sd.ep_like_pd(n_core=2400, m_core=6000, alpha=0.7, seed=17),
    "AM-lite": lambda: sd.er_graph_pd(n=3000, m=5200, seed=18),
}

#: ~1/6-scale variants of the same shapes, for unit tests
DATASETS_TINY: dict[str, Callable[[], pd.DataFrame]] = {
    "HA-tiny": lambda: sd.planted_communities_pd(
        n=150, m_background=240, blocks=[(12, 0.9), (9, 0.8), (8, 0.7)], seed=11
    ),
    "GQ-tiny": lambda: sd.team_graph_pd(
        n=300, n_teams=40, team_size=(4, 7), overlap=0.15, seed=12
    ),
    "WB-tiny": lambda: sd.web_graph_pd(n=400, extra=200, seed=15),
    "AM-tiny": lambda: sd.er_graph_pd(n=500, m=850, seed=18),
}


def load_local(name: str, h: int | None = None) -> LocalGraph:
    """Driver-side graph for ``name`` (with h-cliques attached if h given)."""
    gen = DATASETS.get(name) or DATASETS_TINY[name]
    lg = local_from_pandas(gen())
    return lg.with_cliques(h) if h else lg


def load_spark(spark: SparkSession, name: str) -> DataFrame:
    gen = DATASETS.get(name) or DATASETS_TINY[name]
    return el.edges_from_pandas(spark, gen())


def format_table(rows: list[dict], title: str = "") -> str:
    """Render rows the way the paper prints its tables."""
    if not rows:
        return f"== {title} ==\n(no rows)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    lines = [f"== {title} ==" if title else ""]
    lines.append(" | ".join(str(c).ljust(widths[c]) for c in cols))
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(l for l in lines if l != "")


def _fmt(v) -> str:
    if v is None:
        return "—"
    if isinstance(v, float):
        return f"{v:.3f}" if abs(v) < 100 else f"{v:.1f}"
    return str(v)


# --------------------------------------------------------------------------
# Table 2: dataset statistics
# --------------------------------------------------------------------------
def table2_rows(
    spark: SparkSession | None, names: list[str] | None = None
) -> list[dict]:
    """|V|, |E|, |Psi_3|, |Psi_5| per dataset. Uses the Spark enumerator
    when a session is given, else the driver enumerator (same counts)."""
    rows = []
    for name in names or list(DATASETS):
        if spark is not None:
            edges = load_spark(spark, name)
            n = el.vertices(edges).count()
            m = edges.count()
            psi3 = cq.count_instances(cq.clique_instances(edges, 3))
            psi5 = cq.count_instances(cq.clique_instances(edges, 5))
        else:
            lg = load_local(name)
            n, m = lg.n, lg.m
            psi3 = len(lg.enumerate_cliques(3))
            psi5 = len(lg.enumerate_cliques(5))
        rows.append({"dataset": name, "|V|": n, "|E|": m, "|Psi3|": psi3, "|Psi5|": psi5})
    return rows


# --------------------------------------------------------------------------
# Table 3: efficiency IPPV (h=3) vs LTDS
# --------------------------------------------------------------------------
def table3_rows(
    spark: SparkSession | None,
    names: list[str] | None = None,
    k: int = 5,
    h: int = 3,
) -> list[dict]:
    """Wall-clock of IPPV vs the flow-exact LTDS stand-in (plus, when a
    Spark session is given, the time of the Spark entry point ``ippv``).

    The speedup column compares the driver-side algorithmic cores — the
    fair analogue of the paper's single-machine C++ comparison; the Spark
    column adds Spark enumeration, the collect and fixed job overheads.
    """
    rows = []
    for name in names or list(DATASETS):
        lg = load_local(name, h)
        t0 = time.perf_counter()
        res_i = ippv_local(lg, k=k)
        t_ippv = time.perf_counter() - t0
        t0 = time.perf_counter()
        res_l = flow_exact_lhcds(lg, k=k)
        t_ltds = time.perf_counter() - t0
        assert [(r.vertices, r.density) for r in res_i] == [
            (r.vertices, r.density) for r in res_l
        ], f"IPPV and LTDS disagree on {name}"
        row = {
            "dataset": name,
            f"IPPV (h={h}) [s]": round(t_ippv, 2),
            "LTDS [s]": round(t_ltds, 2),
            "speedup": f"{t_ltds / t_ippv:.2f}x",
            "found": len(res_i),
        }
        if spark is not None:
            edges = load_spark(spark, name)
            t0 = time.perf_counter()
            ippv(spark, edges, h=h, k=k)
            row["IPPV spark [s]"] = round(time.perf_counter() - t0, 2)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Tables 4 & 5: quality of the detected LhCDSes across h
# --------------------------------------------------------------------------
def quality_rows(
    names: list[str] | None = None,
    hs: tuple[int, ...] = (2, 3, 5, 7, 9),
    k: int = 5,
) -> list[dict]:
    """Per dataset and h: avg edge density, diameter, clustering coeff of
    the top-k LhCDSes (paper Tables 4 and 5 in one sweep)."""
    rows = []
    for name in names or list(DATASETS):
        lg_plain = load_local(name)
        for h in hs:
            lg = lg_plain.with_cliques(h)
            if not lg.instances:
                rows.append({"dataset": name, "h": h, "count": 0,
                             "edge_density": None, "diameter": None,
                             "avg_clustering": None})
                continue
            res = ippv_local(lg, k=k)
            mets = average_metrics(lg_plain, [set(r.vertices) for r in res])
            rows.append({"dataset": name, "h": h, "count": mets["count"],
                         "edge_density": mets["edge_density"],
                         "diameter": mets["diameter"],
                         "avg_clustering": mets["avg_clustering"]})
    return rows


def table4_rows(names=None, hs=(2, 3, 5, 7, 9), k=5) -> list[dict]:
    """Average edge density and diameter (paper Table 4)."""
    return [
        {k2: v for k2, v in r.items() if k2 != "avg_clustering"}
        for r in quality_rows(names, hs, k)
    ]


def table5_rows(names=None, hs=(2, 3, 5, 7, 9), k=5) -> list[dict]:
    """Average clustering coefficient (paper Table 5)."""
    return [
        {k2: v for k2, v in r.items() if k2 not in ("edge_density", "diameter")}
        for r in quality_rows(names, hs, k)
    ]


# --------------------------------------------------------------------------
# Figure 9/10 (as a table): basic vs fast verification
# --------------------------------------------------------------------------
def fig9_rows(
    names: list[str] | None = None,
    hs: tuple[int, ...] = (3, 4, 5),
    ks: tuple[int, ...] = (5, 20),
) -> list[dict]:
    rows = []
    for name in names or ["HA-lite", "GQ-lite", "CM-lite"]:
        lg_plain = load_local(name)
        for h in hs:
            lg = lg_plain.with_cliques(h)
            if not lg.instances:
                continue
            for k in ks:
                st: dict = {}
                t0 = time.perf_counter()
                r_fast = ippv_local(lg, k=k, fast_verify=True, stats=st)
                t_fast = time.perf_counter() - t0
                t0 = time.perf_counter()
                r_basic = ippv_local(lg, k=k, fast_verify=False)
                t_basic = time.perf_counter() - t0
                assert [(r.vertices, r.density) for r in r_fast] == [
                    (r.vertices, r.density) for r in r_basic
                ]
                rows.append({"dataset": name, "h": h, "k": k,
                             "fast [s]": round(t_fast, 2),
                             "basic [s]": round(t_basic, 2),
                             "speedup": f"{t_basic / t_fast:.2f}x",
                             "verify calls": st.get("verify_fast", 0)})
    return rows


# --------------------------------------------------------------------------
# Figure 12 (as a table): IPPV (h=2) vs LDSflow
# --------------------------------------------------------------------------
def fig12_rows(names: list[str] | None = None, k: int = 5) -> list[dict]:
    return [
        {
            "dataset": r["dataset"],
            "IPPV (h=2) [s]": r["IPPV (h=2) [s]"],
            "LDSflow [s]": r["LTDS [s]"],
            "speedup": r["speedup"],
        }
        for r in table3_rows(None, names, k=k, h=2)
    ]


# --------------------------------------------------------------------------
# Figure 14 (as a table): IPPV vs Greedy subgraph statistics
# --------------------------------------------------------------------------
def fig14_rows(
    names: list[str] | None = None, hs: tuple[int, ...] = (3, 5), k: int = 5
) -> list[dict]:
    rows = []
    for name in names or ["GQ-lite", "CM-lite"]:
        for h in hs:
            lg = load_local(name, h)
            res_i = ippv_local(lg, k=k)
            res_g = greedy_topk_cds(lg, k=k)
            for rank in range(max(len(res_i), len(res_g))):
                row = {"dataset": name, "h": h, "rank": rank + 1}
                if rank < len(res_i):
                    row["IPPV size"] = res_i[rank].size
                    row["IPPV density"] = float(res_i[rank].density)
                else:
                    row["IPPV size"] = row["IPPV density"] = None
                if rank < len(res_g):
                    row["Greedy size"] = res_g[rank].size
                    row["Greedy density"] = float(res_g[rank].density)
                else:
                    row["Greedy size"] = row["Greedy density"] = None
                rows.append(row)
    return rows

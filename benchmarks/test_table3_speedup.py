"""Benchmark: paper Table 3 — IPPV (h=3) vs the LTDS flow-exact baseline.

Grouped per dataset so the pytest-benchmark table reads like the paper's:
the IPPV row vs the LTDS row per dataset gives the speedup column.
``test_table3_ippv_spark`` additionally times the Spark entry point
(h-clique enumeration on Spark, one collect, then the driver pipeline)
on one representative dataset.
"""
import pytest

from repro.baselines.flow_exact import flow_exact_lhcds
from repro.core.ippv import ippv, ippv_local
from repro.experiments import DATASETS, load_local, load_spark

NAMES = list(DATASETS)


@pytest.fixture(scope="module")
def graphs():
    return {name: load_local(name, 3) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_table3_ippv(benchmark, graphs, name):
    benchmark.group = f"table3 {name}"
    res = benchmark.pedantic(
        lambda: ippv_local(graphs[name], k=5), rounds=1, iterations=1
    )
    benchmark.extra_info["found"] = len(res)
    benchmark.extra_info["top_density"] = float(res[0].density) if res else None


@pytest.mark.parametrize("name", NAMES)
def test_table3_ltds(benchmark, graphs, name):
    benchmark.group = f"table3 {name}"
    res = benchmark.pedantic(
        lambda: flow_exact_lhcds(graphs[name], k=5), rounds=1, iterations=1
    )
    benchmark.extra_info["found"] = len(res)
    # both exact algorithms must agree — the speedup compares equal outputs
    ref = ippv_local(graphs[name], k=5)
    assert [(r.vertices, r.density) for r in res] == [
        (r.vertices, r.density) for r in ref
    ]


def test_table3_ippv_spark(benchmark, spark):
    edges = load_spark(spark, "HA-lite")
    benchmark.group = "table3 HA-lite"
    st = {}
    res = benchmark.pedantic(
        lambda: ippv(spark, edges, h=3, k=5, stats=st), rounds=1, iterations=1
    )
    benchmark.extra_info["found"] = len(res)
    benchmark.extra_info["t_mirror"] = round(st.get("t_mirror", 0.0), 2)

"""Experiment harnesses produce well-formed paper-shaped tables."""
import pytest

from repro import experiments as ex


def test_dataset_registries_disjoint_and_loadable():
    assert not (set(ex.DATASETS) & set(ex.DATASETS_TINY))
    lg = ex.load_local("HA-tiny")
    assert lg.n > 0 and lg.m > 0


def test_load_local_with_cliques():
    lg = ex.load_local("GQ-tiny", 3)
    assert lg.p == 3 and lg.instances


def test_table2_rows_driver():
    rows = ex.table2_rows(None, ["HA-tiny", "WB-tiny"])
    assert [r["dataset"] for r in rows] == ["HA-tiny", "WB-tiny"]
    ha, wb = rows
    assert ha["|Psi3|"] > wb["|Psi3|"]  # social-like is triangle-rich, web-like poor
    for r in rows:
        assert set(r) == {"dataset", "|V|", "|E|", "|Psi3|", "|Psi5|"}


def test_table2_rows_spark_matches_driver(spark):
    d = ex.table2_rows(None, ["HA-tiny"])
    s = ex.table2_rows(spark, ["HA-tiny"])
    assert d == s


def test_table3_rows_shape():
    rows = ex.table3_rows(None, ["HA-tiny"], k=3)
    (r,) = rows
    assert r["found"] >= 1
    assert float(r["speedup"].rstrip("x")) > 0


def test_quality_rows_shape():
    rows = ex.quality_rows(["HA-tiny"], hs=(2, 3), k=3)
    assert len(rows) == 2
    for r in rows:
        if r["count"]:
            assert 0 <= r["edge_density"] <= 1
            assert 0 <= r["avg_clustering"] <= 1


def test_table4_and_5_column_split():
    t4 = ex.table4_rows(["HA-tiny"], hs=(3,), k=2)
    t5 = ex.table5_rows(["HA-tiny"], hs=(3,), k=2)
    assert "avg_clustering" not in t4[0] and "edge_density" not in t5[0]


def test_fig9_rows_agree_and_report_speedup():
    rows = ex.fig9_rows(["HA-tiny"], hs=(3,), ks=(2,))
    assert rows and all("speedup" in r and r["verify calls"] >= 1 for r in rows)


def test_fig14_rows_shape():
    rows = ex.fig14_rows(["GQ-tiny"], hs=(3,), k=3)
    assert rows and {"IPPV size", "Greedy size"} <= set(rows[0])


def test_format_table_renders():
    out = ex.format_table([{"a": 1, "b": None}, {"a": 2.5, "b": "x"}], "T")
    assert "== T ==" in out and "—" in out


def test_format_table_empty():
    assert "(no rows)" in ex.format_table([], "T")

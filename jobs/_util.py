"""Shared plumbing for the job entrypoints.

Each job is ``python jobs/<name>.py [--tiny] [--datasets A B ...]``.
Only ``table2_stats`` uses Spark (``spark-submit`` runs it too): under
pytest it reuses the active session-fixture SparkSession and does not
stop it; a standalone run creates (and owns) its session.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession


def get_session(app: str) -> tuple[SparkSession, bool]:
    """Return (session, owns_it). Reuses an active session when present."""
    active = SparkSession.getActiveSession()
    if active is not None:
        return active, False
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    return s, True


def dataset_args(argv, description: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--tiny", action="store_true", help="use the tiny test suite")
    ap.add_argument("--datasets", nargs="*", default=None)
    ap.add_argument("--k", type=int, default=5)
    args = ap.parse_args(argv)
    if args.datasets is None and args.tiny:
        from repro.experiments import DATASETS_TINY

        args.datasets = list(DATASETS_TINY)
    return args

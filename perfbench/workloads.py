"""The four benchmark workloads and the inputs they run on.

Each workload fixes a ``repro.synth_data`` generator, its parameters
(generator seed included), the clique order h and the public entry point
it times. The run seed given on the command line does not change the
graph's shape: it relabels the vertices with seeded permutations and
shuffles the row order of the edge frame. So every seed is a different
input of the same difficulty, and the exact top-k of any seed is the
stored reference answer of the base graph mapped through that seed's
permutation (LhCDS are defined up to graph isomorphism). That is what
makes a flow-exact reference affordable for ``social-x20-h5``, whose
reference costs about 13 minutes to compute.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

K = 5

_HA_BLOCKS = [(18, 0.9), (15, 0.85), (12, 0.8), (14, 0.6)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # a function of repro.synth_data returning an edge frame
    params: dict
    h: int
    path: str  # "driver" (ippv_local), "spark" (ippv) or "flow_exact"
    reference: str  # file stem under perfbench/references/


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="gq-h3",
            why="near-tied clique teams: flow-heavy driver IPPV (DeriveCompact flows, "
            "exact splits, is_densest); where cheaper flows show",
            generator="team_graph_pd",
            params=dict(n=1800, n_teams=240, team_size=(4, 8), overlap=0.15, seed=12),
            h=3,
            path="driver",
            reference="gq-lite-h3",
        ),
        Workload(
            name="social-x20-h5",
            why="large 5-clique working set: driver IPPV time split between bounds/FW/"
            "prune and is_densest, with almost no DeriveCompact flow",
            generator="planted_communities_pd",
            params=dict(n=18000, m_background=30000, blocks=_HA_BLOCKS * 20, seed=11),
            h=5,
            path="driver",
            reference="ha-x20-h5",
        ),
        Workload(
            name="spark-ha-h3",
            why="the only workload through ippv(spark, ...): Spark enumeration, core "
            "peeling, FW, TentativeGD and prune; the driver loop runs no flow",
            generator="planted_communities_pd",
            params=dict(n=900, m_background=1500, blocks=_HA_BLOCKS, seed=11),
            h=3,
            path="spark",
            reference="ha-lite-h3",
        ),
        Workload(
            name="ltds-gq-h3",
            why="the paper's Table 3 comparator: flow_exact_lhcds on the gq-h3 input, "
            "a few full-graph flows instead of many small ones",
            generator="team_graph_pd",
            params=dict(n=1800, n_teams=240, team_size=(4, 8), overlap=0.15, seed=12),
            h=3,
            path="flow_exact",
            reference="gq-lite-h3",
        ),
    ]
}


def base_edges(w: Workload) -> pd.DataFrame:
    """The workload's canonical edge frame, straight from the generator."""
    from repro import synth_data

    return getattr(synth_data, w.generator)(**w.params)


def fingerprint(edges: pd.DataFrame) -> dict:
    """n, m and a hash of the canonical (sorted, src < dst) edge list."""
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((hi, lo))
    pairs = np.stack([lo[order], hi[order]], axis=1)
    return {
        "n": int(np.unique(pairs).size),
        "m": int(len(pairs)),
        "edges_sha256": hashlib.sha256(np.ascontiguousarray(pairs).tobytes()).hexdigest(),
    }


@dataclass
class Relabelled:
    edges: pd.DataFrame  # the frame the program receives
    to_base: dict[int, int]  # new vertex id -> base vertex id


def relabel(base: pd.DataFrame, seed: int, variant: int) -> Relabelled:
    """Vertex permutation plus row shuffle number ``variant`` of ``seed``.

    Edges stay src < dst. A run gives each timed call its own variant, so
    its median does not hang on how one permutation lays the graph out.
    """
    g = np.random.default_rng([seed, variant])
    ids = np.unique(base[["src", "dst"]].to_numpy())
    new_ids = g.permutation(len(ids)).astype(np.int64)
    src = new_ids[np.searchsorted(ids, base["src"].to_numpy())]
    dst = new_ids[np.searchsorted(ids, base["dst"].to_numpy())]
    rows = g.permutation(len(src))
    lo, hi = np.minimum(src, dst)[rows], np.maximum(src, dst)[rows]
    edges = pd.DataFrame({"src": lo, "dst": hi})
    return Relabelled(edges, dict(zip(new_ids.tolist(), ids.tolist())))

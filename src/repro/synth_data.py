"""Deterministic synthetic graphs for the LhCDS reproduction.

Stand-ins for the paper's SNAP / NetworkRepository datasets (see
DESIGN.md section 4). Each ``*_pd`` generator returns a canonical pandas
edge frame (src < dst, no duplicates or self-loops) and is deterministic
in ``seed``; ``repro.graphs.edgelist.edges_from_pandas`` lifts one to a
Spark DataFrame.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _canon_pd(src: np.ndarray, dst: np.ndarray) -> pd.DataFrame:
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    pdf = pd.DataFrame({"src": lo[keep], "dst": hi[keep]}).drop_duplicates()
    return pdf.sort_values(["src", "dst"]).reset_index(drop=True).astype({"src": "int64", "dst": "int64"})


def er_graph_pd(*, n: int, m: int, seed: int = 0) -> pd.DataFrame:
    """Erdos-Renyi G(n, m)-style graph: ~m distinct uniform random edges."""
    g = _rng(seed)
    src = g.integers(0, n, int(m * 1.3) + 8)
    dst = g.integers(0, n, int(m * 1.3) + 8)
    return _canon_pd(src, dst).head(m).reset_index(drop=True)


def clique_pd(members: list[int]) -> pd.DataFrame:
    """Edge frame of a complete graph over ``members``."""
    ms = sorted(members)
    rows = [(ms[i], ms[j]) for i in range(len(ms)) for j in range(i + 1, len(ms))]
    return pd.DataFrame(rows, columns=["src", "dst"]).astype("int64")


def planted_communities_pd(
    *,
    n: int,
    m_background: int,
    blocks: list[tuple[int, float]],
    seed: int = 0,
) -> pd.DataFrame:
    """Sparse ER background with planted dense near-clique blocks.

    ``blocks`` is a list of ``(size, p_in)``: each block occupies fresh
    consecutive vertex ids (starting at 0) and keeps each internal edge
    with probability ``p_in``. Background edges *directly linking two
    different blocks* are dropped: a single edge between a dense region
    and a denser one chains their compact subgraphs together and (per
    Definition 2, exactly) destroys the smaller region's maximality. Real
    social communities reach each other through sparse intermediaries;
    this keeps the stand-in faithful to the structure the paper's
    datasets exhibit (multiple non-adjacent dense regions). Blocks stay
    connected to the background, so the graph is not a disjoint union.
    """
    g = _rng(seed)
    bg = er_graph_pd(n=n, m=m_background, seed=seed + 1)
    start = 0
    block_of = np.full(n, -1)
    parts = []
    for bi, (size, p_in) in enumerate(blocks):
        members = list(range(start, start + size))
        block_of[members] = bi
        ce = clique_pd(members)
        keep = g.random(len(ce)) < p_in
        parts.append(ce[keep])
        start += size
    if start > n:
        raise ValueError("blocks do not fit into n vertices")
    bs = block_of[bg["src"].to_numpy()]
    bd = block_of[bg["dst"].to_numpy()]
    cross = (bs >= 0) & (bd >= 0) & (bs != bd)
    parts.insert(0, bg[~cross])
    both = pd.concat(parts, ignore_index=True)
    return _canon_pd(both["src"].to_numpy(), both["dst"].to_numpy())


def team_graph_pd(
    *,
    n: int,
    n_teams: int,
    team_size: tuple[int, int],
    overlap: float = 0.12,
    seed: int = 0,
) -> pd.DataFrame:
    """Union of small cliques ("teams") — collaboration-network stand-in
    (CA-GrQc/CA-CondMat-like): modest edge count, very high h-clique count.

    Each team member is a fresh vertex with probability ``1 - overlap``,
    otherwise a uniformly random already-used vertex. Low overlap yields
    many mostly-disjoint clique clusters (the multiple locally densest
    regions the paper's collaboration graphs exhibit); high overlap chains
    teams into larger compact cores. ``n`` caps the vertex-id space.
    """
    g = _rng(seed)
    parts = []
    next_fresh = 0
    used: list[int] = []
    for _ in range(n_teams):
        size = int(g.integers(team_size[0], team_size[1] + 1))
        members: set[int] = set()
        while len(members) < size:
            if used and (g.random() < overlap or next_fresh >= n):
                members.add(int(used[int(g.integers(0, len(used)))]))
            else:
                members.add(next_fresh)
                next_fresh += 1
        used.extend(members)
        parts.append(clique_pd(sorted(members)))
    both = pd.concat(parts, ignore_index=True)
    return _canon_pd(both["src"].to_numpy(), both["dst"].to_numpy())


def powerlaw_graph_pd(*, n: int, m: int, alpha: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Chung-Lu style heavy-tailed graph: endpoints drawn with probability
    proportional to rank^-alpha. Social/trust network degree shape."""
    g = _rng(seed)
    w = 1.0 / np.arange(1, n + 1) ** alpha
    w /= w.sum()
    k = int(m * 1.5) + 8
    src = g.choice(n, size=k, p=w)
    dst = g.choice(n, size=k, p=w)
    return _canon_pd(src, dst).head(m).reset_index(drop=True)


def web_graph_pd(*, n: int, extra: int, seed: int = 0) -> pd.DataFrame:
    """Preferential-attachment tree plus a few shortcuts — web-graph
    stand-in (webbase-like): sparse and clique-poor."""
    g = _rng(seed)
    src = np.zeros(n - 1, dtype=np.int64)
    for v in range(1, n):
        # attach to a uniformly random earlier vertex, biased to low ids
        src[v - 1] = int(g.integers(0, v) * g.random())
    dst = np.arange(1, n, dtype=np.int64)
    ex_s = g.integers(0, n, extra)
    ex_d = g.integers(0, n, extra)
    return _canon_pd(np.concatenate([src, ex_s]), np.concatenate([dst, ex_d]))


def ep_like_pd(
    *,
    n_core: int,
    m_core: int,
    alpha: float = 0.7,
    blocks: list[tuple[int, float]] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Trust/social-network stand-in (soc-epinions-like): a heavy-tailed
    Chung-Lu core (one dense hub region) plus planted peripheral
    communities reached through a few bridge edges."""
    g = _rng(seed)
    core = powerlaw_graph_pd(n=n_core, m=m_core, alpha=alpha, seed=seed + 1)
    blocks = blocks if blocks is not None else [(14, 0.9), (12, 0.85), (10, 0.8)]
    planted = planted_communities_pd(
        n=sum(s for s, _ in blocks) * 3,
        m_background=0,
        blocks=blocks,
        seed=seed + 2,
    )
    planted = planted.assign(src=planted["src"] + n_core, dst=planted["dst"] + n_core)
    n_b = len(blocks) + 2
    bridges = pd.DataFrame(
        {
            "src": g.integers(0, n_core, n_b),
            "dst": g.integers(n_core, n_core + sum(s for s, _ in blocks), n_b),
        }
    )
    both = pd.concat([core, planted, bridges], ignore_index=True)
    return _canon_pd(both["src"].to_numpy(), both["dst"].to_numpy())


def polbooks_like_pd(*, seed: int = 0) -> tuple[pd.DataFrame, pd.Series]:
    """A 105-vertex, 3-community labeled graph standing in for the Krebs
    political-books network (Fig 13/17 case study). Returns (edges, labels)
    with labels in {'liberal', 'conservative', 'neutral'}."""
    edges = planted_communities_pd(
        n=105,
        m_background=160,
        blocks=[(14, 0.85), (13, 0.8), (8, 0.7)],
        seed=seed,
    )
    labels = pd.Series(["neutral"] * 105)
    labels[0:14] = "liberal"
    labels[14:27] = "conservative"
    labels[27:35] = "neutral"
    return edges, labels

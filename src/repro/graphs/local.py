"""Driver-side mirror of a graph + instance hypergraph.

The Spark DataFrame layer enumerates instances; every later IPPV stage
(bounds, Frank-Wolfe, stable groups, pruning, verification, max-flow)
runs on a compact driver-side mirror. ``LocalGraph`` is that mirror:
sorted edge list, adjacency sets, and the instance list (each instance a
sorted tuple of vertex ids).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


@dataclass
class LocalGraph:
    """An undirected simple graph with an attached instance hypergraph.

    ``instances`` are the h-clique (or pattern) occurrences driving
    density/compactness; each is a sorted tuple of vertex ids of length
    ``p`` (the pattern order). A plain graph has ``instances=None``.
    """

    n_hint: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)
    instances: list[tuple[int, ...]] | None = None
    p: int = 0

    def __post_init__(self) -> None:
        es = {(min(u, v), max(u, v)) for u, v in self.edges if u != v}
        self.edges = sorted(es)
        self.adj: dict[int, set[int]] = {}
        for u, v in self.edges:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)
        self.vertices: list[int] = sorted(
            set(self.adj) | set(range(self.n_hint))
        )
        for v in self.vertices:
            self.adj.setdefault(v, set())
        if self.instances is not None:
            self.instances = [tuple(sorted(t)) for t in self.instances]
            if self.instances and not self.p:
                self.p = len(self.instances[0])
        # vertex -> list of instance indices containing it
        self.inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        for i, inst in enumerate(self.instances or []):
            for v in inst:
                self.inc[v].append(i)

    # ---------------------------------------------------------------- basics
    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def _touching(self, s: set[int]) -> list[int]:
        """Instance indices touching any vertex of s (deduped, sorted)."""
        seen: set[int] = set()
        for v in s:
            seen.update(self.inc.get(v, ()))
        return sorted(seen)

    def instance_count(self, sub: Iterable[int] | None = None) -> int:
        """Number of instances fully inside ``sub`` (all, if ``sub`` is None)."""
        if self.instances is None:
            raise ValueError("graph has no instance hypergraph attached")
        if sub is None:
            return len(self.instances)
        s = set(sub)
        return sum(1 for i in self._touching(s) if s.issuperset(self.instances[i]))

    def density(self, sub: Iterable[int]) -> float:
        """Instance density |Psi(G[sub])| / |sub| (0 for the empty set)."""
        s = set(sub)
        return self.instance_count(s) / len(s) if s else 0.0

    def instances_within(self, sub: Iterable[int]) -> list[tuple[int, ...]]:
        s = set(sub)
        if self.instances is None:
            return []
        return [
            self.instances[i]
            for i in self._touching(s)
            if s.issuperset(self.instances[i])
        ]

    # --------------------------------------------------------- connectivity
    def components(self, sub: Iterable[int] | None = None) -> list[set[int]]:
        """Connected components (of the induced subgraph, if ``sub`` given)."""
        verts = set(self.vertices if sub is None else sub)
        seen: set[int] = set()
        comps: list[set[int]] = []
        for s0 in verts:
            if s0 in seen:
                continue
            comp = {s0}
            seen.add(s0)
            q = deque([s0])
            while q:
                u = q.popleft()
                for w in self.adj[u]:
                    if w in verts and w not in seen:
                        seen.add(w)
                        comp.add(w)
                        q.append(w)
            comps.append(comp)
        return comps

    def is_connected(self, sub: Iterable[int]) -> bool:
        sub = set(sub)
        return bool(sub) and len(self.components(sub)) == 1

    def bfs_ecc(self, src: int, sub: set[int]) -> int:
        """Eccentricity of ``src`` within the induced subgraph ``sub``."""
        dist = {src: 0}
        q = deque([src])
        ecc = 0
        while q:
            u = q.popleft()
            for w in self.adj[u]:
                if w in sub and w not in dist:
                    dist[w] = dist[u] + 1
                    ecc = max(ecc, dist[w])
                    q.append(w)
        return ecc

    # --------------------------------------------------------- enumeration
    def enumerate_cliques(self, h: int) -> list[tuple[int, ...]]:
        """All h-clique occurrences, driver-side (reference implementation).

        Degree-ordered DAG expansion, the same strategy the Spark
        enumerator uses; used for tests and tiny-graph oracles.
        """
        if h < 2:
            raise ValueError("h >= 2 required (h=2 cliques are edges)")
        rank = {v: (len(self.adj[v]), v) for v in self.vertices}
        out = {v: sorted(w for w in self.adj[v] if rank[w] > rank[v]) for v in self.vertices}
        res: list[tuple[int, ...]] = []

        def grow(clique: list[int], cands: list[int]) -> None:
            if len(clique) == h:
                res.append(tuple(sorted(clique)))
                return
            for i, w in enumerate(cands):
                nxt = [x for x in cands[i + 1 :] if x in self.adj[w]]
                grow(clique + [w], nxt)

        for v in self.vertices:
            grow([v], out[v])
        return res

    def with_cliques(self, h: int) -> "LocalGraph":
        """A copy of this graph with its h-cliques attached as instances."""
        return LocalGraph(
            n_hint=self.n_hint, edges=list(self.edges),
            instances=self.enumerate_cliques(h), p=h,
        )

    def induced(self, sub: Iterable[int]) -> "LocalGraph":
        """Induced subgraph (keeps the instance hypergraph filtered to sub)."""
        s = set(sub)
        return LocalGraph(
            edges=[(u, v) for u, v in self.edges if u in s and v in s],
            instances=None if self.instances is None else self.instances_within(s),
            p=self.p,
        )

    # ------------------------------------------------------------- metrics
    def edge_density(self, sub: Iterable[int]) -> float:
        s = set(sub)
        if len(s) < 2:
            return 0.0
        m = sum(1 for u, v in self.edges if u in s and v in s)
        return 2.0 * m / (len(s) * (len(s) - 1))

    def diameter(self, sub: Iterable[int]) -> int:
        s = set(sub)
        return max(self.bfs_ecc(v, s) for v in s) if s else 0

    def clustering(self, v: int, sub: set[int] | None = None) -> float:
        nb = self.adj[v] if sub is None else (self.adj[v] & sub)
        k = len(nb)
        if k < 2:
            return 0.0
        links = sum(1 for a, b in combinations(sorted(nb), 2) if self.has_edge(a, b))
        return 2.0 * links / (k * (k - 1))

    def avg_clustering(self, sub: Iterable[int]) -> float:
        s = set(sub)
        return float(np.mean([self.clustering(v, s) for v in s])) if s else 0.0


def local_from_pandas(edges_pdf, instances=None, p: int = 0, n_hint: int = 0) -> LocalGraph:
    """Build a LocalGraph from a pandas (src, dst) edge frame."""
    es = list(zip(edges_pdf["src"].astype(int), edges_pdf["dst"].astype(int)))
    return LocalGraph(n_hint=n_hint, edges=es, instances=instances, p=p)

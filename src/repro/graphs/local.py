"""Driver-side mirror of a graph + instance hypergraph.

The Spark DataFrame layer enumerates instances; every later IPPV stage
(bounds, Frank-Wolfe, stable groups, pruning, verification, max-flow)
runs on a compact driver-side mirror. ``LocalGraph`` is that mirror,
built once as numpy arrays over vertex *positions* (indices into the
sorted id array ``ids``, so position order is id order):

- ``eu``, ``ev``: the canonical edges (``eu < ev``, sorted, deduplicated);
- ``inst``: an int32 ``(|Psi|, p)`` instance matrix, each row ascending;
- ``inc_ptr``, ``inc_idx``: the vertex -> instance CSR.

Bounds, Frank-Wolfe, TentativeGD and pruning run on these arrays. The
verification and flow layers still read the Python views built from
them: ``edges`` (sorted id pairs), ``adj`` (id -> neighbour set),
``instances`` (sorted id tuples) and ``inc`` (id -> instance indices).
"""
from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

#: candidate (clique, vertex) pairs tested per batch in ``enumerate_cliques``
_CHUNK = 1 << 18


def segments(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + lens[i])``."""
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    return np.repeat(np.asarray(starts, dtype=np.int64) - ends + lens, lens) + np.arange(
        ends[-1] if len(ends) else 0
    )


def csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, order)``: the entries of ``keys`` grouped by key value 0..n-1.

    Entry indices of key ``v`` are ``order[ptr[v]:ptr[v + 1]]``, ascending.
    """
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr, np.argsort(keys, kind="stable")


def incidence(inst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex -> instance CSR of an instance matrix over vertices 0..n-1.

    The rows containing vertex v are ``rows[ptr[v]:ptr[v + 1]]``, ascending.
    """
    ptr, order = csr(inst.ravel(), n)
    return ptr, (order // max(inst.shape[1], 1)).astype(np.int32)


def csr_gather(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR entries of every row in ``rows``, concatenated."""
    return idx[segments(ptr[rows], ptr[rows + 1] - ptr[rows])]


@dataclass
class LocalGraph:
    """An undirected simple graph with an attached instance hypergraph.

    ``edges`` may be any sequence of id pairs or an ``(m, 2)`` array;
    self-loops and duplicates are dropped and each pair is stored as
    ``(min, max)``. ``instances`` are the h-clique (or pattern)
    occurrences driving density/compactness, each a tuple (or array row)
    of ``p`` vertex ids; a plain graph has ``instances=None``.
    """

    n_hint: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)
    instances: list[tuple[int, ...]] | None = None
    p: int = 0

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e = e[e[:, 0] != e[:, 1]]
        lo, hi = e.min(axis=1), e.max(axis=1)
        self.ids = np.union1d(np.concatenate([lo, hi]), np.arange(self.n_hint))
        n = len(self.ids)
        key = np.unique(np.searchsorted(self.ids, lo) * n + np.searchsorted(self.ids, hi))
        self.eu, self.ev = (key // max(n, 1)).astype(np.int32), (key % max(n, 1)).astype(np.int32)
        self.vertices: list[int] = self.ids.tolist()
        # the Python views below reference these int objects instead of
        # making one per edge end, instance member or incidence
        self._vobj = np.array(self.vertices, dtype=object)
        self.pos: dict[int, int] = dict(zip(self.vertices, range(n)))
        self.edges = list(zip(self._vobj[self.eu].tolist(), self._vobj[self.ev].tolist()))
        ptr, order = csr(np.concatenate([self.eu, self.ev]), n)
        nb = self._vobj[np.concatenate([self.ev, self.eu])[order]].tolist()
        bounds = ptr.tolist()
        self.adj: dict[int, set[int]] = {
            v: set(nb[bounds[i] : bounds[i + 1]]) for i, v in enumerate(self.vertices)
        }
        self.inst: np.ndarray | None = None
        self.inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        if self.instances is not None:
            self._attach(self.instances, self.p)

    def _attach(self, instances, p: int) -> None:
        """Set the instance hypergraph: matrix, CSR and the tuple views."""
        a = np.asarray(instances, dtype=np.int64)
        if a.size:
            p = a.shape[1]
        a = np.sort(a.reshape(len(a), p), axis=1)
        at = np.searchsorted(self.ids, a).astype(np.int32)
        if a.size and (at.max() >= self.n or (self.ids[at] != a).any()):
            raise ValueError("every instance member must be a vertex of the graph")
        del a  # free the id copy before building the tuple views: lowers peak memory
        self.p = p
        self.inst = at
        self.instances = list(zip(*self._vobj[at.T].tolist()))
        self.inc_ptr, self.inc_idx = incidence(at, self.n)
        inc = np.arange(len(at)).astype(object)[self.inc_idx].tolist()
        bounds = self.inc_ptr.tolist()
        self.inc = {v: inc[bounds[i] : bounds[i + 1]] for i, v in enumerate(self.vertices)}

    # ---------------------------------------------------------------- basics
    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def positions(self, sub: Iterable[int]) -> np.ndarray:
        """Positions of the vertices of ``sub`` (ids not in the graph skipped)."""
        pos = self.pos
        return np.fromiter((pos[v] for v in sub if v in pos), dtype=np.int64)

    def mask(self, sub: Iterable[int]) -> np.ndarray:
        """Boolean vector over positions, true on the vertices of ``sub``."""
        m = np.zeros(self.n, dtype=bool)
        m[self.positions(sub)] = True
        return m

    def rows_within(self, mask: np.ndarray) -> np.ndarray:
        """Indices of the instances whose members all lie in ``mask``, ascending.

        Costs O(t log t) for the t incidences of the ``mask`` vertices, not
        O(|Psi|): a row occurs in them once per member inside ``mask``, so
        it lies inside exactly when its sorted run reaches p - 1 places on.
        """
        if self.inst is None:
            raise ValueError("graph has no instance hypergraph attached")
        touch = np.sort(csr_gather(self.inc_ptr, self.inc_idx, np.flatnonzero(mask)))
        run = touch[self.p - 1 :]
        return run[run == touch[: len(run)]]

    def sub_instances(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(verts, loc)``: instance rows ``rows`` relabelled to 0..k-1.

        ``verts`` holds the positions of the k vertices the rows touch
        (ascending) and ``loc`` the rows over indices into ``verts``; the
        relabelling keeps order, so ``loc`` rows stay ascending.
        """
        sub = self.inst[rows]
        present = np.zeros(self.n, dtype=bool)
        present[sub.ravel()] = True
        remap = (np.cumsum(present) - 1).astype(np.int32)
        return np.flatnonzero(present), remap[sub]

    def instance_count(self, sub: Iterable[int] | None = None) -> int:
        """Number of instances fully inside ``sub`` (all, if ``sub`` is None)."""
        if self.instances is None:
            raise ValueError("graph has no instance hypergraph attached")
        if sub is None:
            return len(self.instances)
        return len(self.rows_within(self.mask(sub)))

    def density(self, sub: Iterable[int]) -> float:
        """Instance density |Psi(G[sub])| / |sub| (0 for the empty set)."""
        s = set(sub)
        return self.instance_count(s) / len(s) if s else 0.0

    def instances_within(self, sub: Iterable[int]) -> list[tuple[int, ...]]:
        if self.instances is None:
            return []
        inst = self.instances
        return [inst[i] for i in self.rows_within(self.mask(sub)).tolist()]

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
    def enumerate_cliques(self, h: int) -> np.ndarray:
        """All h-clique occurrences as an ``(count, h)`` array of vertex ids.

        Each row is ascending. Degree-ordered DAG expansion, the strategy
        the Spark enumerator uses: edges point from lower to higher
        ``(degree, id)`` rank, an h-clique is exactly one rank-increasing
        chain, and each chain grows by the out-neighbours of its last
        vertex that are adjacent to all its earlier members (looked up
        with ``searchsorted`` in the sorted edge keys), in batches of
        about ``_CHUNK`` candidates.
        """
        if h < 2:
            raise ValueError("h >= 2 required (h=2 cliques are edges)")
        n, eu, ev = self.n, self.eu.astype(np.int64), self.ev.astype(np.int64)
        if h == 2 or not len(eu):
            rows = np.stack([eu, ev], axis=1) if h == 2 else np.zeros((0, h), np.int64)
            return self.ids[rows]
        deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
        fwd = rank[eu] < rank[ev]
        a, b = np.where(fwd, eu, ev), np.where(fwd, ev, eu)
        out_ptr, order = csr(a, n)
        out = b[order]
        keys = eu * n + ev  # ascending: edges are sorted by (eu, ev)

        def adjacent(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            k = np.minimum(x, y) * n + np.maximum(x, y)
            at = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
            return keys[at] == k

        found: list[np.ndarray] = []

        def grow(chains: np.ndarray) -> None:
            last = chains[:, -1]
            cnt = out_ptr[last + 1] - out_ptr[last]
            cum = np.cumsum(cnt)
            cuts = np.searchsorted(cum, np.arange(_CHUNK, cum[-1], _CHUNK), side="right")
            for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(chains)]):
                if lo == hi:
                    continue
                src = np.repeat(np.arange(lo, hi), cnt[lo:hi])
                cand = out[segments(out_ptr[last[lo:hi]], cnt[lo:hi])]
                for j in range(chains.shape[1] - 1):
                    ok = adjacent(chains[src, j], cand)
                    src, cand = src[ok], cand[ok]
                if not len(src):
                    continue
                nxt = np.column_stack([chains[src], cand])
                if nxt.shape[1] == h:
                    found.append(nxt)
                else:
                    grow(nxt)

        grow(np.stack([a, b], axis=1))
        rows = np.sort(np.concatenate(found), axis=1) if found else np.zeros((0, h), np.int64)
        return self.ids[rows]

    def with_cliques(self, h: int) -> "LocalGraph":
        """This graph with its h-cliques attached as instances.

        Shares the canonical edges, positions and adjacency with ``self``;
        only the instance arrays and views are new.
        """
        g = copy.copy(self)
        g._attach(self.enumerate_cliques(h), h)
        return g

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
    es = edges_pdf[["src", "dst"]].to_numpy(dtype=np.int64)
    return LocalGraph(n_hint=n_hint, edges=es, instances=instances, p=p)

"""Dinic max-flow on integer capacities, with min-cut extraction.

All capacities are Python ints (callers scale exact rationals to a common
denominator first), so min-cut decisions are exact — no floating-point
tolerance anywhere in verification. Both the *minimal* source side
(s-reachable in the residual graph) and the *maximal* source side
(complement of the set that reaches t in the residual graph) can be
extracted; the paper's Theorem 5 needs the maximal one.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence


class Dinic:
    """Max-flow solver. Nodes are 0..n-1; parallel arcs are allowed."""

    def __init__(self, n: int) -> None:
        self.n = n
        # adjacency as arc index lists; arcs stored flat as (to, cap) with
        # the reverse arc at index ^1
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edges(
        self, us: Sequence[int], vs: Sequence[int], caps: Sequence[int]
    ) -> None:
        """Directed arcs ``us[i] -> vs[i]`` with capacity ``caps[i]``."""
        if caps and min(caps) < 0:
            raise ValueError("negative capacity")
        to, head = self.to, self.head
        a = len(to)
        for u, v in zip(us, vs):
            head[u].append(a)
            head[v].append(a + 1)
            a += 2
        new_to = [0] * (2 * len(caps))
        new_to[0::2] = vs
        new_to[1::2] = us
        new_cap = [0] * (2 * len(caps))  # reverse arcs start empty
        new_cap[0::2] = caps
        to += new_to
        self.cap += new_cap

    def add_edge(self, u: int, v: int, cap: int) -> None:
        """Directed arc u->v with capacity ``cap``."""
        self.add_edges((u,), (v,), (cap,))

    def _levels(self, s: int, t: int) -> list[int] | None:
        """BFS levels of the residual graph, or None if t is unreachable.

        The search stops at t's level, and the other nodes of that level
        are left unlabelled: no shortest augmenting path runs through them.
        """
        to, cap, head = self.to, self.cap, self.head
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for a in head[u]:
                    if cap[a]:
                        v = to[a]
                        if level[v] < 0:
                            level[v] = d
                            nxt.append(v)
            if level[t] >= 0:
                for v in nxt:
                    level[v] = -1
                level[t] = d
                return level
            frontier = nxt
        return None

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """One blocking-flow phase (iterative DFS with arc pointers)."""
        to, cap, head = self.to, self.cap, self.head
        flow = 0
        it = [0] * self.n
        path: list[int] = []  # arc indices from s to the current node
        u = s
        while True:
            if u == t:
                pushed = min([cap[a] for a in path])
                cut = -1
                for i, a in enumerate(path):
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                    if cut < 0 and not cap[a]:
                        cut = i
                flow += pushed
                # retreat to just before the first saturated arc
                del path[cut:]
                u = to[path[-1]] if path else s
                continue
            arcs = head[u]
            i, end, want = it[u], len(arcs), level[u] + 1
            while i < end:
                a = arcs[i]
                if cap[a] and level[to[a]] == want:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(arcs[i])
                u = to[arcs[i]]
                continue
            if u == s:
                return flow
            # dead end: remove u from the level graph and retreat; the
            # predecessor's pointer still aims at the arc into u, which the
            # admissibility check now rejects (level[u] == -1) and skips.
            level[u] = -1
            path.pop()
            u = to[path[-1]] if path else s

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (level := self._levels(s, t)) is not None:
            total += self._blocking_flow(s, t, level)
        return total

    # ------------------------------------------------------------- cut sides
    def min_cut_source_side(self, s: int) -> set[int]:
        """Minimal source side: nodes reachable from s in the residual graph.

        Call after ``max_flow``.
        """
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    def max_cut_source_side(self, t: int) -> set[int]:
        """Maximal source side: complement of nodes that reach t residually.

        Call after ``max_flow``.
        """
        reach_t = {t}
        q = deque([t])
        while q:
            v = q.popleft()
            for a in self.head[v]:
                u = self.to[a]
                # u reaches v iff the residual arc u->v (reverse of a) has cap
                if self.cap[a ^ 1] > 0 and u not in reach_t:
                    reach_t.add(u)
                    q.append(u)
        return set(range(self.n)) - reach_t

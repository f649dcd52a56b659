"""Batch Frank-Wolfe approximation of CP(G, h) (Algorithm 2's propose step).

CP(G, h) asks every instance (h-clique or pattern occurrence) to split
its unit weight over its members so that the received totals ``r`` are as
even as possible; the optimal ``r*`` equals the h-clique compact numbers
(Theorem 2). ``fw_local`` is the batch Frank-Wolfe of Danisch, Chan and
Sozio (WWW 2017), not the paper's sequential SEQ-kClist++: every pass
reads ``r`` from the previous iterate, sends each instance's step weight
to its member of least ``r`` (one ``argmin`` over the instance matrix),
and mixes with step size ``1/(t+1)`` (one ``bincount``). Any iterate is a
*feasible* CP solution, which is all Theorem 4 needs, so exactness of the
pipeline never depends on convergence quality (DESIGN.md section 3).
"""
from __future__ import annotations

import numpy as np


def fw_local(inst: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """T passes of batch Frank-Wolfe over an instance matrix.

    ``inst`` is an ``(instances, p)`` matrix of vertex indices, each row
    ascending. Returns ``(alpha, r)``: ``alpha[i, j]`` is the weight
    instance i assigns to its j-th member and ``r[v]`` the total vertex v
    receives (``len(r) = inst.max() + 1``; a vertex in no instance gets 0).
    A tie for least ``r`` goes to the first member, the smallest index.
    """
    inst = np.asarray(inst)
    m, p = inst.shape
    if not m:
        return np.zeros((0, p)), np.zeros(0)
    n = int(inst.max()) + 1
    alpha = np.full((m, p), 1.0 / p)
    r = np.bincount(inst.ravel(), minlength=n) / p
    # indices in the platform integer type (an int32 index array would be
    # converted on every pass); ``at`` holds each instance's flat position
    # of its chosen member in ``alpha`` and ``flat``
    idx = inst.astype(np.intp)
    flat, slot = idx.ravel(), np.arange(0, m * p, p)
    for t in range(1, T + 1):
        gamma = 1.0 / (t + 1)
        at = slot + np.argmin(r[idx], axis=1)
        alpha *= 1.0 - gamma
        alpha.ravel()[at] += gamma
        r = (1.0 - gamma) * r + gamma * np.bincount(flat[at], minlength=n)
    return alpha, r

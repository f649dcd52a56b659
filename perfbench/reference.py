"""Stored exact answers and input fingerprints, and the check against them.

A reference file holds, for one workload input (generator, parameters, h):

- the input fingerprint: n, m, |Psi_h| and a hash of the edge list;
- the exact top-k densities as ``num/den`` strings;
- every LhCDS whose density is at least the k-th one, as sorted vertex
  lists in the generator's labels. Ties at the k-th density make several
  top-k answers exact; a result passes when each of its sets is one of
  these and its densities are the top-k densities.

References are computed by ``repro.baselines.flow_exact.flow_exact_lhcds``
with ``k=None``, the flow-only algorithm that shares no proposal, pruning
or verification code with IPPV. Regenerate them with

    PYTHONPATH=src python3 perfbench/reference.py [workload ...]

(``social-x20-h5`` takes about 13 minutes on one core).
"""
from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "references"


def ref_path(stem: str) -> Path:
    return REF_DIR / f"{stem}.json"


def load(stem: str) -> dict:
    return json.loads(ref_path(stem).read_text())


def check_input(ref: dict, fp: dict) -> str | None:
    """None when the generated base input matches the stored fingerprint."""
    want = ref["fingerprint"]
    for key in ("n", "m", "edges_sha256"):
        if fp[key] != want[key]:
            return f"input fingerprint {key}: got {fp[key]}, reference {want[key]}"
    return None


def check_psi(ref: dict, psi: int) -> str | None:
    want = ref["fingerprint"]["psi"]
    return None if psi == want else f"|Psi_h| {psi} != reference {want}"


def check_result(ref: dict, results, to_base: dict[int, int]) -> str | None:
    """None when ``results`` is an exact top-k; otherwise the reason."""
    try:
        got = [
            (frozenset(to_base[int(v)] for v in r.vertices), Fraction(r.density))
            for r in results
        ]
    except KeyError as e:
        return f"result holds vertex {e} that is not in the input"
    want = [Fraction(d) for d in ref["topk_densities"]]
    dens = sorted((d for _, d in got), reverse=True)
    if dens != want:
        return f"densities {[str(d) for d in dens]} != reference {ref['topk_densities']}"
    family = {(frozenset(e["vertices"]), Fraction(e["density"])) for e in ref["lhcds"]}
    for s, d in got:
        if (s, d) not in family:
            return f"a set of {len(s)} vertices at density {d} is no reference LhCDS"
    if len({s for s, _ in got}) != len(got):
        return "result repeats a vertex set"
    return None


def build(w, k: int) -> dict:
    """Compute the reference of workload ``w`` with flow_exact_lhcds."""
    from repro.baselines.flow_exact import flow_exact_lhcds
    from repro.graphs.local import local_from_pandas

    from workloads import base_edges, fingerprint

    edges = base_edges(w)
    t0 = time.perf_counter()
    lg = local_from_pandas(edges).with_cliques(w.h)
    every = flow_exact_lhcds(lg, k=None)
    took = time.perf_counter() - t0
    top = [r.density for r in every[:k]]
    kth = top[-1]
    return {
        "input": {"generator": w.generator, "params": w.params, "h": w.h},
        "fingerprint": {**fingerprint(edges), "psi": lg.instance_count()},
        "k": k,
        "topk_densities": [str(d) for d in top],
        "lhcds": [
            {"density": str(r.density), "vertices": sorted(int(v) for v in r.vertices)}
            for r in every
            if r.density >= kth
        ],
        "lhcds_total": len(every),
        "computed_by": "repro.baselines.flow_exact.flow_exact_lhcds(lg, k=None)",
        "compute_s": round(took, 1),
    }


def main(argv: list[str]) -> int:
    from workloads import K, WORKLOADS

    names = argv or list(WORKLOADS)
    done: set[str] = set()
    for name in names:
        w = WORKLOADS[name]
        if w.reference in done:
            continue
        ref = build(w, K)
        REF_DIR.mkdir(exist_ok=True)
        ref_path(w.reference).write_text(json.dumps(ref, indent=1) + "\n")
        done.add(w.reference)
        print(f"{w.reference}: {ref['topk_densities']} in {ref['compute_s']} s")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))

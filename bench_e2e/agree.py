"""Do two bench_e2e result files agree within the benchmark's own bounds?

    python bench_e2e/agree.py A.json B.json

Prints the relative delta of every metric of B against A.  End-to-end
metrics must stay within the bound BENCHMARK.json stores for them, the
failed fraction may not rise, and exact-count metrics must be equal.
Per-layer timings have no bound: their deltas are printed, not gated.
Exits 1 on disagreement, 2 on files that cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: functions of the seed alone: any difference is a behaviour change
EXACT = (
    "decomp.split_buckets", "decomp.shared_particles", "decomp.imbalance",
    "trees.n_nodes", "trees.n_leaves", "trees.depth",
    "core.opens", "core.node_interactions", "core.leaf_interactions",
    "core.pp_interactions", "core.pn_interactions",
    "apps.knn.pp_per_query", "apps.collision.events", "exec.chunks",
    "accuracy_err_p50", "accuracy_err_p99",
)


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "bench_e2e/1":
        sys.exit(f"agree: {path} is not a bench_e2e result file")
    if doc.get("smoke"):
        print(f"agree: {path} is a --smoke result (tiny N); refusing to compare it",
              file=sys.stderr)
        sys.exit(2)
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if a["seed"] != b["seed"]:
        print(f"agree: seeds differ ({a['seed']} vs {b['seed']}): exact counts "
              "cannot be compared", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    disagreements = 0
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if not wa or not wb:
            continue
        print(f"== {workload}")
        for mode, key, metrics in (("untraced", "end_to_end", spec["end_to_end"]),
                                   ("traced", "per_layer", spec["per_layer"])):
            if mode not in wa or mode not in wb:
                continue
            fa, fb = wa[mode]["fail_frac"], wb[mode]["fail_frac"]
            if fb > fa:
                disagreements += 1
                print(f"  {mode} fail_frac rose {fa:.3g} -> {fb:.3g}   DISAGREE")
            for m in metrics:
                va = wa[mode][key][m["name"]]["value"]
                vb = wb[mode][key][m["name"]]["value"]
                delta = (vb - va) / abs(va) if va else float(vb != va)
                verdict = ""
                if m["name"] in EXACT and va != vb:
                    verdict = "DISAGREE (exact count)"
                elif "bound" in m and abs(delta) > m["bound"]:
                    worse = (delta > 0) == (m["better"] == "lower")
                    verdict = f"DISAGREE ({'worse' if worse else 'better'} by more than {m['bound']:.0%})"
                disagreements += bool(verdict)
                print(f"  {m['name']:32s} {va:>14.6g} -> {vb:>14.6g} {m['unit']:9s}"
                      f" {delta:+8.2%}  {verdict}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: the SHA-256 and counterexample count of
the leaf-deletion and reversal-invariance reports, the CLI exit code, and the
χ-sequence digest of each of the ``CORPUS_SEEDS`` solve-random corpora, with
the corpus shape those digests belong to.  Run it
only on a commit whose outputs are known to be right; a run that differs from
these values counts as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    leafdel = workloads.LeafDeletion(0, {}).run_pass()
    report, text = leafdel.output
    invariance = workloads.InvarianceCli(0, {})
    invariance.setup()
    code, data = invariance.run_pass().output
    expected = {
        "leafdel": {
            "sha256": workloads.sha256(text.encode()),
            "counterexamples": len(report.counterexamples),
        },
        "invariance-cli": {
            "sha256": workloads.sha256(data),
            "counterexamples": len(json.loads(data)["summary"]["counterexamples"]),
            "exit_code": code,
        },
        "solve-random": {**workloads.corpus_shape(), "chi_sha256": {}},
    }
    opts = workloads.solver.SolveOptions(node_budget=workloads.NODE_BUDGET)
    for seed in range(workloads.CORPUS_SEEDS):
        # A budget failure raises here.
        chis = [workloads.solver.solve_exact(t, opts).chi for t in workloads.random_corpus(seed)]
        expected["solve-random"]["chi_sha256"][str(seed)] = workloads.chi_digest(chis)
        print(f"seed {seed}: {sum(chis)} total chi", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Table verdicts in a form that survives refactors of the library.

Rows are compared through `CaseVerdict.to_json_dict()`, the same data the
CLI prints with `--json`.  A cubic row is rendered as its line of
`cubic check --all`; a K3 row keeps its pass/fail verdict, reason, the
transcendental classes and the multiset of overlattice outcomes, but not
the coordinates of the glue generators, which depend on how subgroups are
represented rather than on the mathematics.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CUBIC_REFERENCE = REFERENCE_DIR / "cubic_hm15_E6.txt"
K3_REFERENCE = REFERENCE_DIR / "k3max11.json"


def cubic_line(row: dict) -> str:
    """The row's line in `latticelab cubic check --all` output."""
    mark = "pass" if row["pass"] else "FAIL"
    line = f"row {row['row']:2d}  {row['group']:14s} order {row['group_order']:6d}  {mark}"
    if not row["pass"]:
        return line + "  " + row["reason"]
    for c in row["classes"]:
        line += f"  [T={c['T']}"
        if c["embedding_count"] is not None:
            line += f" embeddings={c['embedding_count']}"
        if c["nonsymplectic_order"] is not None:
            line += f" nbar={c['nonsymplectic_order']} total={c['total_order']}"
        line += "]"
    return line


def k3_verdict(row: dict) -> dict:
    outcomes = sorted(
        [w["witness"]["index"], w["witness"]["quotient"], w["exists"],
         w["failed_condition"]]
        for w in row.get("witnesses", []))
    return {"row": row["row"], "pass": row["pass"], "reason": row["reason"],
            "condition": row["condition"], "alpha": row["alpha"],
            "classes": row["classes"], "outcomes": outcomes}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def load_cubic_reference() -> dict[int, str]:
    lines = CUBIC_REFERENCE.read_text(encoding="utf-8").splitlines()
    return {int(line.split()[1]): line for line in lines}


def load_k3_reference() -> dict[tuple[str, int], str]:
    data = json.loads(K3_REFERENCE.read_text(encoding="utf-8"))
    return {(root, v["row"]): canonical(v)
            for root, rows in data["roots"].items() for v in rows}

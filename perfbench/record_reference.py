"""Record the benchmark's table references from the library's own CLI.

Run once, from the root of a checkout of the commit that defines the
reference, and commit the files it writes under perfbench/reference/:

    python3 perfbench/record_reference.py

The cubic reference is the text of `latticelab cubic check --all`; the K3
reference holds the reduced verdicts (see verdicts.py) of
`latticelab k3 check --degree d --json` for d = 0, 2, 4, 6.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from verdicts import CUBIC_REFERENCE, K3_REFERENCE, REFERENCE_DIR, k3_verdict

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LATTICELAB_DATA", None)
    return subprocess.run([sys.executable, "-m", "latticelab.cli", *args],
                          check=True, capture_output=True, text=True, cwd=ROOT,
                          env=env).stdout


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    CUBIC_REFERENCE.write_text(cli("cubic", "check", "--all"), encoding="utf-8")
    roots = {}
    for degree in (0, 2, 4, 6):
        data = json.loads(cli("k3", "check", "--degree", str(degree), "--json"))
        roots[data["root"]] = [k3_verdict(row) for row in data["rows"]]
    K3_REFERENCE.write_text(json.dumps({"table": "k3max11", "roots": roots},
                                       indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()

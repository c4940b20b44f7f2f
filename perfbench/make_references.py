"""Write ``references.json``: the facts each operation produces at the default seed.

    PYTHONPATH=src python3 perfbench/make_references.py

References are taken once from a commit whose outputs are trusted and then
left alone; a change that claims a gain must pass against them unchanged.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parents[1]) as tmp:
        for name, make_ops in WORKLOADS.items():
            refs[name] = {}
            for size in ("full", "smoke"):
                facts = {}
                for op in make_ops(DEFAULT_SEED, size, Path(tmp)):
                    result = op.call()
                    problems = op.invariants(result)
                    if problems:
                        sys.stderr.write(f"{name}/{size}/{op.name}: {problems}\n")
                        return 1
                    facts[op.name] = op.facts(result)
                refs[name][size] = facts
                print(f"{name} {size}: {len(facts)} operations", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

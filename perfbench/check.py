#!/usr/bin/env python3
"""Held-out seed check: every workload once, at reduced size, on a seed that
no workload uses by default, both untraced and traced.

    python3 perfbench/check.py

Exits 1 if any run fails its correctness checks or exits non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HELDOUT_SEED = 99  # the defaults are 42, 7 and 2024
WORKLOADS = ("gcn_cora", "ssmm_2k_uniform", "ssmm_small_batch")
RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    bad = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed",
                 str(HELDOUT_SEED), "--seconds", "1", "--trace", trace,
                 "--small"], capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            ok = result.get("correct") is True and result.get("failed") == 0
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name} trace={trace} "
                  f"seed={HELDOUT_SEED} attempted={result.get('attempted')}")
            if not ok:
                print(proc.stdout + proc.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that a seed-0 benchmark run wrote the recorded output bytes.

    python3 perfbench/run.py --seconds 2 > bench-smoke.txt
    python3 scripts/check_seed_digests.py bench-smoke.txt

Each ``# sha256 <digest> <file>`` line the run prints after a
``# workload <name> seed=0`` line must equal that file's digest in
``seed0_sha256`` of ``perfbench/baseline_seed.json``, and every recorded
workload and file must be printed. Exits 1 and lists every difference
otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline_seed.json"


def differences(output: str, baseline: dict) -> list[str]:
    """Every way the digests printed in ``output`` differ from ``baseline``."""
    got: dict[str, dict[str, str]] = {}
    problems, files = [], None
    for line in output.splitlines():
        if m := re.match(r"# workload (\S+) seed=(\S+)", line):
            if m[2] != "0":
                problems.append(f"{m[1]}: a seed-{m[2]} run, not seed 0")
            files = got.setdefault(m[1], {})
        elif m := re.match(r"# sha256 (\S+) (\S+)$", line):
            if files is None:
                problems.append(f"digest of {m[2]} before any workload line")
            else:
                files[m[2]] = m[1]
    for workload, want in baseline["workloads"].items():
        have = got.get(workload)
        if have is None:
            problems.append(f"{workload}: no run in the output")
            continue
        want = want["seed0_sha256"]
        for name in sorted(want.keys() | have.keys()):
            if have.get(name) != want.get(name):
                problems.append(f"{workload}: {name}: recorded {want.get(name)}, "
                                f"got {have.get(name)}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = differences(Path(argv[1]).read_text(),
                           json.loads(BASELINE.read_text()))
    for problem in problems:
        print(f"digest mismatch: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

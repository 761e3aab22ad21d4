"""Rebuild ``goldens.json`` from the program at the current commit.

Usage (from the root of a checkout): python3 perfbench/make_goldens.py

Runs every job whose inputs do not depend on the seed, records its
invariants, and adds the congruence count of each con/decompose input.  Every
count is cross-checked against the partition-scan oracle
``all_congruences_bruteforce`` where the carrier has at most 10 elements, and
every con count against the printed list.  Review the diff before committing:
a golden is only as right as the commit it was taken from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import inputs  # noqa: E402

BRUTE_FORCE_MAX = 10


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from ordalg import all_congruences_bruteforce, congruence_lattice, parse

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    goldens = {}
    for workload in ("audit", "con", "decompose", "search"):
        work = root / ".perfbench_work" / f"goldens-{workload}"
        jobs, files, _ = inputs.build_workload(workload, 0, work)
        for job in jobs:
            if job.expect:  # seed-dependent: checked from the inputs instead
                continue
            proc = subprocess.run([sys.executable, "-m", "ordalg", *job.argv], cwd=work, env=env,
                                  capture_output=True, text=True, check=True)
            entry = golden.extract(job, json.loads(proc.stdout))
            if job.argv[0] in ("con", "decompose"):
                _, A = parse(files[job.argv[1]]).the_algebra()
                count = len(congruence_lattice(A))
                if A.n <= BRUTE_FORCE_MAX and len(all_congruences_bruteforce(A)) != count:
                    raise SystemExit(f"{job.id}: closure and partition scan disagree")
                if job.argv[0] == "con" and entry["count"] != count:
                    raise SystemExit(f"{job.id}: printed count {entry['count']} != {count}")
                entry["congruences"] = count
            goldens[job.id] = entry
            print(f"{job.id}: {json.dumps(entry)[:100]}")
    golden.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

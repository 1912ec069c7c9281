#!/usr/bin/env python3
"""Check quick-run digests against the recorded ones.

    tools/check_digests.py SUITE_REPORT...

Each SUITE_REPORT is the `suite-seed<S>.json` a `gpunion-benchmark run
--quick --seed S` writes under `benchmark/out/`. Every workload's
`sim_digest` in it must equal the one `tools/digests.json` records for that
seed, and the report must cover exactly the recorded workloads. Exits
non-zero, listing every mismatch, otherwise. A change that moves a digest on
purpose edits `tools/digests.json` and says why.
"""

import json
import pathlib
import sys

RECORDED = pathlib.Path(__file__).resolve().parent / "digests.json"


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    recorded = json.loads(RECORDED.read_text())
    bad = []
    for path in sys.argv[1:]:
        report = json.loads(pathlib.Path(path).read_text())
        seed = str(report["seed"])
        if not report.get("quick"):
            bad.append(f"{path}: not a --quick run")
            continue
        want = recorded.get(seed)
        if want is None:
            bad.append(f"{path}: no digests recorded for seed {seed}")
            continue
        got = {w: r["sim_digest"] for w, r in report["workloads"].items()}
        for workload in sorted(set(want) | set(got)):
            w, g = want.get(workload), got.get(workload)
            status = "ok" if w == g else "DIFFERS"
            print(f"seed {seed:>3}  {workload:<20} recorded {w}  run {g}  {status}")
            if w != g:
                bad.append(f"seed {seed} {workload}: recorded {w}, run {g}")
    if bad:
        print("\n".join(["digest check failed:"] + bad), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

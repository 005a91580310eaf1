#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/record.py

Runs every workload once on each of the N_CORPORA corpora, stores its
report.json (without the resolved config) in perfbench/reference.json and
stamps the file with the commit from `git rev-parse --short HEAD`.  Run it
in a git checkout whose `src/` has no uncommitted changes, at a commit
whose outputs are trusted; a change that alters outputs on purpose
re-records and says so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import HERE, N_CORPORA, ROOT, SRC, TOLERANCE, WORK, load_report, run_child
import workloads


def main() -> None:
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", SRC], cwd=ROOT).returncode != 0:
        raise SystemExit("src/ differs from HEAD; commit it before recording")
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    reference = {"commit": commit, "tolerance": TOLERANCE, "reports": {}}
    for name in sorted(workloads.WORKLOADS):
        reports = {}
        for corpus in range(N_CORPORA):
            rundir = os.path.join(WORK, f"record-{name}-{corpus}")
            shutil.rmtree(rundir, ignore_errors=True)
            workloads.write_workload(name, corpus, rundir)
            res = run_child([sys.executable, "-m", "ldlkit.cli"] + workloads.cli_args(name), rundir)
            if res["status"] != 0:
                raise SystemExit(f"{name} corpus {corpus} exited with {res['status']}")
            reports[str(corpus)] = load_report(rundir)
            shutil.rmtree(rundir)
            print(f"{name} corpus {corpus}: {res['wall_s']:.1f} s", flush=True)
        reference["reports"][name] = reports
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ldlkit command line.

    python3 perfbench/run.py --workload endstate-1k --seed 11 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` (no install needed).  One run generates the workload's inputs
from the seed, then runs `ldlkit <verb>` child processes one at a time,
each on the same inputs, for at least `--seconds` seconds and at least
twice, and measures start-up cost before and after them.  Every child is
checked:

- it exits 0;
- its report.json matches the reference recorded in reference.json
  (every recorded field; strings and integers exactly, floats within
  TOLERANCE absolute);
- every output file is byte-identical to the first child's;
- for incremental-stream, the numpy and compiled token loops agree
  within 1e-10 when the compiled kernel is built.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json (medians
over the children).  `--trace 1` runs one plain child and one child under
perfbench/trace.py, and reports the per-layer metrics; the full span list
goes to the sidecar .bench_work/<workload>-<seed>/trace.json.  The last
line of stdout is one JSON object; the lines above it give every metric
by name with unit and sample count, the error rate and the environment.
The exit code is 1 when any check fails, 2 when the checkout holds no
program.

Reference outputs exist for N_CORPORA corpora: `--seed n` generates
corpus `n % N_CORPORA`, so seed 11 is the test suite's
`paradigm_lexicon(250)`.  Refresh them with perfbench/record.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

N_CORPORA = 16
TOLERANCE = 1e-6
AGREEMENT = 1e-10
# Set-up probes per run, half before the children and half after, so that
# they sample the machine at both ends of the run; setup_s is their median.
N_SETUP = 10
BUDGET_S = 140.0  # start no child expected to end after this
# One BLAS thread: a second one doubled CPU time without shortening endstate-1k.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Start-up cost of a CLI call; the environment stamp it prints at the end
# takes microseconds (numpy is already imported by then).
SETUP_CODE = (
    "import sys, ldlkit.cli\n"
    "from ldlkit.experiments import load_config\n"
    "load_config(sys.argv[1])\n"
    "import json, os, ldlkit, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'wh_backend': ldlkit.WH_BACKEND, 'numpy': numpy.__version__,\n"
    "    'blas': f\"{blas.get('name')} {blas.get('version')}\",\n"
    "    'blas_threads': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC, **BLAS_ENV}


def run_child(argv: list[str], cwd: str) -> dict:
    """Spawn one process and wait for it; wall from spawn to exit, its own rusage."""
    with open(os.path.join(cwd, "child.log"), "wb") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=log)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": p.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def output_digests(outdir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def compare(got, ref, path: str = "report") -> list[str]:
    """Mismatches of got against every field of ref (extra fields in got are ignored)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in ref.items():
            if k not in got:
                out.append(f"{path}.{k}: missing")
            else:
                out += compare(got[k], v, f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref)) for m in compare(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and not isinstance(got, bool):
            if (math.isnan(ref) and math.isnan(got)) or abs(got - ref) <= TOLERANCE:
                return []
        return [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def load_report(rundir: str) -> dict:
    with open(os.path.join(rundir, "out", "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("config", None)  # resolved settings, not results
    return report


def check_backends(rundir: str) -> list[str]:
    """Numpy and compiled token loops on this workload's stream, when both exist."""
    script = os.path.join(HERE, "backends.py")
    p = subprocess.run([sys.executable, script, "run.config"], cwd=rundir, env=child_env(),
                       capture_output=True, text=True, timeout=BUDGET_S)
    if p.returncode != 0:
        return [f"backend check failed: {p.stderr.strip()[-300:]}"]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"# backend agreement: {res}")
    if res["max_abs_diff"] is not None and not res["max_abs_diff"] <= AGREEMENT:
        return [f"backends disagree: max |W_numpy - W_compiled| = {res['max_abs_diff']:.3e}"]
    return []


class Runner:
    """Runs and checks children of one workload on one seed."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.corpus = seed % N_CORPORA
        self.dir = os.path.join(WORK, f"{workload}-{seed}")
        self.reference = reference
        self.digests: dict[str, str] | None = None
        self.results: list[dict] = []
        self.errors: list[str] = []

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        workloads.write_workload(self.workload, self.corpus, self.dir)

    def setup(self, n: int) -> tuple[list[float], dict]:
        """n set-up probes: their wall times and the environment the last one saw."""
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            p = subprocess.run([sys.executable, "-c", SETUP_CODE, "run.config"], cwd=self.dir,
                               env=child_env(), capture_output=True, text=True, timeout=BUDGET_S)
            times.append(time.perf_counter() - t0)
            if p.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {p.stderr.strip()[-300:]}")
        return times, json.loads(p.stdout)

    def run_checked(self, argv: list[str]) -> dict:
        shutil.rmtree(os.path.join(self.dir, "out"), ignore_errors=True)
        res = run_child(argv, self.dir)
        errors = []
        if res["status"] != 0:
            errors.append(f"exit status {res['status']}")
        else:
            errors += compare(load_report(self.dir), self.reference)
            digests = output_digests(os.path.join(self.dir, "out"))
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                changed = sorted(k for k in digests.keys() | self.digests.keys()
                                 if digests.get(k) != self.digests.get(k))
                errors.append(f"rerun not byte-identical: {', '.join(changed)}")
        res["errors"] = errors
        self.results.append(res)
        self.errors += errors
        return res

    def cli(self) -> list[str]:
        return [sys.executable, "-m", "ldlkit.cli"] + workloads.cli_args(self.workload)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ldlkit", "cli.py")):
        print(f"no ldlkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    start = time.perf_counter()
    r = Runner(args.workload, args.seed, reference["reports"][args.workload][str(args.seed % N_CORPORA)])
    r.prepare()
    setup, env = r.setup(1 if args.trace else N_SETUP // 2)
    stamp = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             **env, "python": sys.version.split()[0]}
    print(f"# workload {args.workload} seed {args.seed} (corpus {r.corpus}) "
          f"env {json.dumps(stamp, sort_keys=True)}")

    if args.trace:
        plain = r.run_checked(r.cli())
        sidecar = os.path.join(r.dir, "trace.json")
        tracer = [sys.executable, os.path.join(HERE, "trace.py"), sidecar, "--"]
        traced = r.run_checked(tracer + workloads.cli_args(args.workload))
        values = {}
        if traced["status"] == 0:
            with open(sidecar, encoding="utf-8") as fh:
                trace = json.load(fh)
            values = trace["metrics"]
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            trace.update(env=stamp, workload=args.workload, seed=args.seed,
                         plain_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"])
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
            print(f"# plain child {plain['wall_s']:.3f} s, traced child {traced['wall_s']:.3f} s; "
                  f"spans in {sidecar}")
        metrics_spec = spec["per_layer"]
    else:
        while True:
            res = r.run_checked(r.cli())
            elapsed = time.perf_counter() - start
            n = len(r.results)
            if res["errors"] or n >= 2 and (sum(x["wall_s"] for x in r.results) >= args.seconds
                                            or elapsed + res["wall_s"] > BUDGET_S):
                break
        setup += r.setup(N_SETUP - N_SETUP // 2)[0]
        values = {k: statistics.median([x[k] for x in r.results]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        print(f"# setup_s samples {len(setup)}; wall_s, cpu_s, peak_rss_mb samples {len(r.results)}")
        metrics_spec = spec["end_to_end"]

    if args.workload == "incremental-stream":
        disagreement = check_backends(r.dir)
        r.results[0]["errors"] += disagreement
        r.errors += disagreement
    failed = sum(1 for x in r.results if x["errors"])
    for e in r.errors:
        print(f"# MISMATCH {e}")
    print(f"# error_rate {failed / len(r.results):.4f} ({failed} of {len(r.results)} runs failed; "
          f"floats compared within {TOLERANCE:g})")
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            r.errors.append(f"metric {m['name']} was not measured")
        v = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"# {m['name']} {v:.6g} {m['unit']}")
    correct = not r.errors
    print(json.dumps({"correct": correct, "attempted": len(r.results), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

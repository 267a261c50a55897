"""The qct benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload audit-tables --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

Run from the root of a checkout.  Each repetition runs `worker.py` in a fresh
Python process, importing qct from the checkout's `src/`; repetitions repeat
until the next one would end after `--seconds`.  Set-up time is the import of
`qct.cli`, `qct.audit` and `qct.quantum`, timed in fresh processes before
and after the repetitions.
Every item's output is checked against `reference.json`.  With `--trace 1`
one untraced and one traced repetition give the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import compare, exact_counts
from worker import OUT_DIR, QCT_ENV, ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 4    # taken before and again after the repetitions
TIME_LIMIT_S = 170   # every run must end within 180 s
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import qct.cli, qct.audit, qct.quantum; "
              "print(time.perf_counter() - t)")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in QCT_ENV}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_child(argv, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next process")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{argv[0]} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_times(deadline: float) -> list[float]:
    return [float(run_child(["-c", SETUP_CODE, str(ROOT / "src")], deadline))
            for _ in range(SETUP_SAMPLES)]


def run_rep(workload, seed, trace, deadline, untraced_wall=0.0) -> dict:
    """One repetition in a fresh process, with a fresh catalog store."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="rep-", dir=OUT_DIR)
    argv = [str(BENCH / "worker.py"), "--workload", workload, "--seed",
            str(seed), "--trace", str(int(trace)), "--tmp", tmp,
            "--untraced-wall", repr(untraced_wall)]
    try:
        return json.loads(run_child(argv, deadline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = setup_times(deadline)
    reps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(run_rep(workload, seed, False, deadline))
        last = time.monotonic() - began
        if trace or time.monotonic() - start + last > seconds:
            break
    traced = (run_rep(workload, seed, True, deadline, reps[0]["wall_s"])
              if trace else None)
    setup += setup_times(deadline)

    attempted = failed = exact = total = 0
    problems = []
    for rep in reps + ([traced] if traced else []):
        for item in rep["items"]:
            found = [item["error"]] if item["error"] else []
            if item["output"] is not None:
                want = reference.get(workload, {}).get(item["id"])
                found += (compare(want, item["output"]) if want is not None
                          else ["no reference output"])
            if item["output"] is not None and rep is reps[0]:
                e, t = exact_counts(item["output"])
                exact, total = exact + e, total + t
            attempted += 1
            failed += bool(found)
            problems += [f"{item['id']}: {p}" for p in found]
    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": attempted, "failed": failed,
        "problems": problems,
        "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
        "metrics": {"wall_s": statistics.median(walls),
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": statistics.median(rss)},
        "exact_share": [exact, total],
        "item_seconds": {i["id"]: i["seconds"] for i in reps[0]["items"]},
        "outputs": {i["id"]: i["output"] for i in reps[0]["items"]
                    if i["output"] is not None},
        "layers": traced["layers"] if traced else None,
        "breakdown": traced["breakdown"] if traced else None,
        "env": {"qct_file": os.path.relpath(reps[0]["qct_file"], ROOT),
                "qct_version": reps[0]["qct_version"], "commit": git_commit(),
                "python": platform.python_version(),
                "numpy": reps[0]["numpy"],
                "nproc": len(os.sched_getaffinity(0))},
    }


def print_summary(res: dict):
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"qct {env['qct_version']} ({env['qct_file']})  "
          f"commit {env['commit']}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}")
    for name, value in res["metrics"].items():
        samples = res["samples"][name]
        print(f"  {name:<12} {value:12.6f} {UNITS[name]:<3} lower is better; "
              f"median of {len(samples)} samples, range "
              f"{min(samples):.6f} .. {max(samples):.6f}")
    exact, total = res["exact_share"]
    print(f"  {'exact_share':<12} {exact / total if total else 0:12.6f} "
          f"{'':<3} higher is better; {exact} of {total} results exact")
    print(f"  {'fail_ratio':<12} {res['failed'] / res['attempted']:12.6f} "
          f"{'':<3} lower is better; {res['failed']} of "
          f"{res['attempted']} items failed")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    for name, value in (res["layers"] or {}).items():
        print(f"  {name:<36} {value}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qct" / "__init__.py").is_file():
        print(f"error: no qct package under {ROOT / 'src'}; run from the "
              "root of a qct checkout", file=sys.stderr)
        return 2
    try:
        reference = json.loads(REFERENCE.read_text())
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), reference)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT_DIR / name).write_text(json.dumps(res, indent=1))
            print_summary(res)
            results[workload] = res
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for workload, res in results.items():
        prefix = f"{workload}." if len(results) > 1 else ""
        values = res["layers"] if args.trace else res["metrics"]
        metrics.update({prefix + name: {"value": value, "unit": unit_of(name)}
                        for name, value in values.items()})
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("lincode.ns_per_codeword."):
        return "ns"
    if name.endswith("_s") or ".target_s." in name or ".enum_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a qct benchmark workload, run in a fresh process.

    python3 bench/worker.py --workload css-relative --seed 1 --trace 0 --tmp DIR

imports `qct` from the `src/` of the checkout that holds this file, runs the
workload's items as one closed-loop client (each item starts when the previous
one returns) and prints one JSON line: wall time of the items after import,
peak RSS, each item's time and output summary and, with `--trace 1`, the
per-layer metrics of the outside-in tracer.  `run.py` compares the summaries
with the frozen reference.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from check import record_summary, report_summary

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CAP = 1 << 24          # qct's default enumeration budget, passed explicitly
THREADS = 1
QCT_ENV = ("QCT_CAP", "QCT_SEED", "QCT_THREADS", "QCT_CATALOG")

AUDIT_TARGETS = ("table1", "table2", "table3", "table4", "examples")
CSS_ITEMS = (("concat_expand_aqc", (2, 3, 5, 2)),
             ("charpin_family", (5, 2)),
             ("rs_direct_sum_aqc", (8, 3, 1)),
             ("rs_direct_sum_aqc", (5, 3, 1)),
             ("concat_expand_aqc", (2, 4, 3, 1)),
             ("concat_expand_aqc", (3, 3, 3, 1)))
CLI_COMMANDS = ("quantum bch1 --m 6 --d1 3 --d2 7",
                "quantum charpin --m 7 --i 2",
                "quantum charpin --m 7 --i 3",
                *(f"quantum bch1 --m 10 --d1 {d1} --d2 31"
                  for d1 in (15, 11, 7, 3)),
                "quantum rsds --q 16 --k1 9 --k2 2",
                "quantum concat --q 4 --m 2 --k1 13 --k2 1",
                "quantum negaexp --q 9 --n 8 --s 4 --m 3",
                "audit table3")
# the pre-filled store makes catalog work a visible but minor share
STORE_ENTRIES = 2000
STORE_LENGTHS = (15, 28, 31, 45, 63, 75, 104, 127, 1023)
SEARCHES = 4
GETS = 4

WORKLOADS = ("audit-tables", "cli-bounded", "css-relative")


class ItemFailed(Exception):
    pass


def load_qct() -> dict:
    """Import the checkout's own qct modules, keyed by layer name."""
    sys.path.insert(0, str(ROOT / "src"))
    mods = {name: importlib.import_module(f"qct.{name}")
            for name in ("galois", "gflinalg", "polyalg", "lincode",
                         "families", "quantum", "audit", "catalog", "cli")}
    qct_file = Path(sys.modules["qct"].__file__).resolve()
    if ROOT / "src" not in qct_file.parents:
        raise SystemExit(f"qct imported from {qct_file}, not this checkout")
    return mods


def records_output(recs) -> dict:
    recs = recs if isinstance(recs, (list, tuple)) else [recs]
    return {"records": [record_summary(r.to_json()) for r in recs]}


def audit_items(mods, rng, tmp):
    targets = list(AUDIT_TARGETS)
    rng.shuffle(targets)
    for target in targets:
        yield (f"audit_table({target})",
               lambda t=target: mods["audit"].audit_table(t, cap=CAP,
                                                          threads=THREADS),
               lambda rep: {"rows": report_summary(rep.to_json())})


def css_items(mods, rng, tmp):
    items = list(CSS_ITEMS)
    rng.shuffle(items)
    for fn, args in items:
        yield (f"{fn}{args}".replace(" ", ""),
               lambda f=fn, a=args: getattr(mods["quantum"], f)(*a, cap=CAP),
               records_output)


def synthetic_payload(rng, index: int) -> dict:
    n = rng.choice(STORE_LENGTHS)
    dx = rng.randint(1, 8)
    return {"n": n, "k": rng.randint(1, n - 1), "q": rng.choice((2, 4, 8, 9)),
            "dz": dx + rng.randint(0, 24), "dx": dx, "purity": "unknown",
            "exact": {"dz": "lower_bound", "dx": "lower_bound"},
            "provenance": {"construction": "synthetic", "index": index}}


def canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def cli_items(mods, rng, tmp):
    """One CLI session: every quantum command and the table3 audit, each
    record stored with `catalog put`, then searches and gets.  The store is
    pre-filled here, before timing starts."""
    store = os.path.join(tmp, "catalog.jsonl")
    stored = [synthetic_payload(rng, i) for i in range(STORE_ENTRIES)]
    prefill = mods["catalog"].Catalog(store)
    for payload in stored:
        prefill.put("quantum", payload)
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    base = ["--cap", str(CAP), "--threads", str(THREADS), "--seed", "0",
            "--catalog", store]

    def cli(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].run_cli(base + list(argv))
        if code != 0:
            raise ItemFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return cli_session(cli, commands, stored, rng, tmp)


def cli_session(cli, commands, stored, rng, tmp):
    put_ids = []
    for cmd in commands:
        text = yield (f"qct {cmd}", lambda c=cmd: cli(*c.split(), "--json"),
                      parse_command_output)
        try:
            emitted = [json.loads(line) for line in text.splitlines()]
        except (AttributeError, ValueError):
            continue  # no output, or not JSON: the command item fails
        for j, payload in enumerate(emitted):
            if "rows" in payload:
                stored.append(payload)  # audit --catalog stores its report
                continue
            path = os.path.join(tmp, f"record{len(stored)}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)
            eid = yield (f"qct catalog put ({cmd}) #{j}",
                         lambda p=path: cli("catalog", "put", p, "--kind",
                                            "quantum").strip(),
                         check_put)
            stored.append(payload)
            if eid:
                put_ids.append((eid, payload))
    expected_all = {canon(p): p for p in stored}
    for s in range(SEARCHES):
        n, dz_min = rng.choice(STORE_LENGTHS), rng.randint(1, 12)
        want = sorted(c for c, p in expected_all.items()
                      if p.get("n") == n and (p.get("dz") or 0) >= dz_min)
        yield (f"qct catalog search #{s}",
               lambda a=(n, dz_min): cli("catalog", "search", "--n", str(a[0]),
                                         "--dz-min", str(a[1])),
               lambda text, w=want: check_search(text, w))
    for g, (eid, payload) in enumerate(rng.sample(put_ids,
                                                  min(GETS, len(put_ids)))):
        yield (f"qct catalog get #{g}", lambda e=eid: cli("catalog", "get", e),
               lambda text, p=payload: check_get(text, p))


def parse_command_output(text: str) -> dict:
    docs = [json.loads(line) for line in text.splitlines()]
    if len(docs) == 1 and "rows" in docs[0]:
        return {"rows": report_summary(docs[0])}
    return {"records": [record_summary(d) for d in docs]}


def check_put(text: str):
    if not text or len(text.split()) != 1:
        raise ItemFailed(f"catalog put printed {text!r}, not one id")


def check_search(text: str, want: list):
    got = sorted(canon(json.loads(line)["payload"])
                 for line in text.splitlines())
    if got != want:
        raise ItemFailed(f"catalog search returned {len(got)} entries, "
                         f"expected {len(want)}")


def check_get(text: str, payload: dict):
    if json.loads(text)["payload"] != payload:
        raise ItemFailed("catalog get returned another payload")


ITEMS = {"audit-tables": audit_items, "cli-bounded": cli_items,
         "css-relative": css_items}


def run(workload: str, seed: int, trace: bool, tmp: str,
        untraced_wall: float) -> dict:
    for var in QCT_ENV:
        os.environ.pop(var, None)
    mods = load_qct()
    items = ITEMS[workload](mods, random.Random(seed), tmp)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(mods)

    done = []
    raw = None
    t0 = time.perf_counter()
    while True:
        try:
            item = items.send(raw)
        except StopIteration:
            break
        item_id, thunk, summarize = item
        if tracer:
            tracer.begin_item(item_id)
        start = time.perf_counter()
        try:
            raw, error = thunk(), None
        except Exception as exc:  # a raising item is a failed item
            raw, error = None, f"{type(exc).__name__}: {exc}"
        done.append((item_id, time.perf_counter() - start, raw, error,
                     summarize))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for item_id, seconds, raw_out, error, summarize in done:
        output = None
        if error is None:
            try:
                output = summarize(raw_out)
            except Exception as exc:  # a malformed output is a failed item
                error = f"output check: {exc}"
        results.append({"id": item_id, "seconds": seconds, "error": error,
                        "output": output})
    out = {"workload": workload, "seed": seed, "trace": trace,
           "wall_s": wall, "peak_rss_mb": peak_rss_mb, "items": results,
           "qct_file": sys.modules["qct"].__file__,
           "qct_version": getattr(sys.modules["qct"], "__version__", None),
           "numpy": sys.modules["numpy"].__version__}
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(str(OUT_DIR / f"{workload}.spans.npz"))
        out["layers"] = tracer.layer_metrics(wall, untraced_wall)
        out["breakdown"] = tracer.item_breakdown()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--untraced-wall", type=float, default=0.0)
    args = ap.parse_args()
    result = run(args.workload, args.seed, bool(args.trace), args.tmp,
                 args.untraced_wall)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

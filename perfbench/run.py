"""Benchmark entry point for hypalign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
``src/``.  Every measurement happens in a fresh child interpreter
(``worker.py``) with BLAS pinned to one thread, started one at a time, so
the import of ``hypalign`` is timed cold and nothing runs alongside.

With ``--trace 0`` the last line of standard output is one JSON object
holding every ``end_to_end`` metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every ``per_layer`` metric instead.  Its end-to-end
times are calibrated to nominal host speed (``hostspeed.py``).  The lines
before it say the same for a reader, with the raw wall times, the
environment and every correctness check.  A failed check or operation makes the exit code 1;
a missing package or a child that fails makes it 2 without a result line.
Full records (and the spans of traced runs) go to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from benchstats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
RUN_BUDGET_S = 170.0      # one workload run ends within this
SETUP_SAMPLES = 3         # fresh-process set-ups per run; setup_s is their median
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(argv, deadline: float) -> dict:
    """Run the worker once and return its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv], cwd=ROOT, capture_output=True, text=True,
            timeout=remaining, env={**os.environ, **THREAD_ENV},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_BUDGET_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: "
                         + "\n".join(proc.stderr.strip().splitlines()[-5:]))
    return json.loads(lines[-1])


def end_to_end(setups, op_s, wall_s, res) -> dict:
    """The end-to-end metrics from set-up samples, op times and window time."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_s) / wall_s if op_s else 0.0,
        "op_ms_p50": statistics.median(op_s) * 1e3 if op_s else 0.0,
        "op_ms_tail": tail(op_s, res["tail_pct"])[2] * 1e3 if op_s else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out-dir", OUT_DIR]
    setups = []
    if trace == 0:
        setups = [child(["--mode", "probe", *common], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
    res = child(["--mode", "run", *common], deadline)
    setups.append(res)
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["setup_cal_samples_s"] = [s["setup_cal_s"] for s in setups]

    label, beyond, _ = (tail(res["op_s"], res["tail_pct"]) if res["op_s"]
                        else ("p50", 0, 0.0))
    res["tail"] = {"percentile": label, "beyond": beyond, "samples": len(res["op_s"])}
    if trace == 0:
        values = end_to_end(res["setup_cal_samples_s"], res["cal_op_s"], res["cal_wall_s"], res)
        res["raw"] = end_to_end(res["setup_samples_s"], res["op_s"], res["wall_s"], res)
        declared = spec["end_to_end"]
    else:
        declared = spec["per_layer"]
        # an op the census never met was built and reached zero times
        values = {**{m["name"]: 0.0 for m in declared
                     if m["name"].startswith("autodiff.nodes.")}, **res["layers"]}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in declared}
    res["correct"] = not res["failures"] and all(c["ok"] for c in res["checks"].values())
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def report(res: dict) -> None:
    """Human-readable block for one workload run."""
    env = res["env"]
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"op: {res['op']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']} (affinity {env['affinity_cpus']}), "
          f"BLAS threads {env['blas_threads']}, package {env['hypalign']}")
    raw = res.get("raw", {})
    for name, m in res["metrics"].items():
        note = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    t = res["tail"]
    if res["trace"] == 0:
        f = sorted(res["factors"])
        print(f"  times are calibrated to nominal host speed; the host ran "
              f"{statistics.median(f):.3f}x slower than nominal (median of {len(f)} "
              f"probes, {f[0]:.3f}-{f[-1]:.3f})" if f else "  no host-speed probe")
        print(f"  op_ms_tail is {t['percentile']} of {t['samples']} ops "
              f"({t['beyond']} beyond it); setup_s is the median of "
              + ", ".join(f"{s:.3f}" for s in res["setup_cal_samples_s"]) + " s (raw "
              + ", ".join(f"{s:.3f}" for s in res["setup_samples_s"]) + " s)")
        for alias, (name, scale, unit) in res["aliases"].items():
            print(f"  {alias} = {name} = {res['metrics'][name]['value'] * scale:.6g} {unit}")
        for key in ("eval", "export"):
            if res["info"].get(f"{key}_s"):
                cal, raw_s = res["info"][f"{key}_cal_s"], res["info"][f"{key}_s"]
                print(f"  {key}_s = {statistics.median(cal):.4f} s "
                      f"(median of {len(cal)}; raw {statistics.median(raw_s):.4f} s)")
    else:
        shown = set(res["metrics"])
        rest = {k: v for k, v in res["layers"].items() if k not in shown and v}
        for name, value in sorted(rest.items()):
            print(f"  {name:<44} {value:>14.6g}   (trace file only)")
        print(f"  spans: {res['spans_file']}")
    print(f"  failed_ops_ratio = {len(res['failures'])}/{res['attempted']} = "
          f"{len(res['failures']) / max(1, res['attempted']):g}")
    for f in res["failures"]:
        print(f"  FAILED op at step {f['step']}: kind={f['kind']} {f['message']}")
    for name, c in res["checks"].items():
        print(f"  check {name:<28} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    for key in ("params_sha256", "final_sha256"):
        if key in res["info"]:
            step = res["info"].get("params_sha256_step" if key == "params_sha256" else "steps")
            print(f"  {key} after step {step}: {res['info'][key]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hypalign", "__init__.py")):
        print(f"perfbench: no hypalign source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"perfbench: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2
    try:
        results = [run_workload(spec, w, args.seed, args.seconds, args.trace)
                   for w in chosen]
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, run one workload, print one JSON line.

Started by ``run.py`` in a fresh interpreter, so that the import of
``hypalign`` is measured cold every time.  Set-up is timed from the
worker's first line: numpy first, then, with the host-speed clock probing
every 0.1 s so that set-up is calibrated like everything else,
``import hypalign.cli`` and the workload's set-up.  Modes:

* ``probe``: import and set up, then report the set-up time and exit;
* ``run`` with ``--trace 0``: set up, run the operation loop for
  ``--seconds``, check the outputs;
* ``run`` with ``--trace 1``: set up, run the loop untraced for half of
  ``--seconds`` (the reference), then the same operations again from the
  same starting state under the tracer, and derive the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchstats import tail  # noqa: E402
from hostspeed import NOMINAL_S, HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

perf = time.perf_counter
SETUP_TICK_S = 0.1        # timer probes during set-up

LAYERS = ("autodiff", "manifold", "entailment", "uncertainty", "losses",
          "synthdata", "trainer", "evalmetrics", "gradcheck", "cli")
# span-name prefixes that are not package layers
_NOT_LAYERS = {"bench": "uncovered", "gc": "gc", "trace": "trace"}
# top-level spans the workloads open around one operation
OP_SPANS = {"bench.step", "bench.eval", "bench.export", "bench.check_grads"}


def environment() -> dict:
    import hypalign.cli
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hypalign": os.path.relpath(os.path.dirname(hypalign.cli.__file__), ROOT),
    }


def layer_metrics(tr: Tracer, traced, ref, state, import_s: float, tail_pct: float) -> dict:
    """Per-layer numbers of one traced pass of ``n`` operations."""
    n = len(traced.op_s)
    summary = tr.summary()
    by = summary["by_name"]
    # calls and times inside the operations, interval work excluded
    in_ops: dict = {}
    for (top, name), rec in summary["by_top"].items():
        if top in OP_SPANS:
            acc = in_ops.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]

    def calls(name):
        return in_ops.get(name, (0, 0.0, 0.0))[0]

    def incl_ms(name):            # inclusive ms per operation
        return in_ops.get(name, (0, 0.0, 0.0))[1] * 1e3 / n

    def self_ms(name):
        return in_ops.get(name, (0, 0.0, 0.0))[2] * 1e3 / n

    def per_call_ms(name):        # every call, interval work included
        c = by.get(name, (0,))[0]
        return by[name][1] * 1e3 / c if c else 0.0

    m = {}
    reach, built = sum(tr.reachable.values()), sum(tr.built.values())
    m["autodiff.nodes_per_step"] = reach / n
    m["autodiff.nodes_built_per_step"] = built / n
    m["autodiff.reachable_ratio"] = reach / built if built else 0.0
    for op in sorted(set(tr.built) | set(tr.reachable)):
        m[f"autodiff.nodes.{op}"] = tr.reachable[op] / n
        m[f"autodiff.nodes_built.{op}"] = tr.built[op] / n
    m["autodiff.backward_ms"] = incl_ms("autodiff.gradients")

    m["losses.total_loss_ms"] = incl_ms("losses.total_loss")
    for fn in ("contrastive", "entail_leaky", "calibration"):
        m[f"losses.{fn}_calls_per_step"] = calls(f"losses.{fn}") / n
        m[f"losses.{fn}_self_ms"] = self_ms(f"losses.{fn}")

    for fn in ("lift", "pairwise_distance", "hyperbolic_radius"):
        m[f"manifold.{fn}_calls_per_step"] = calls(f"manifold.{fn}") / n
        m[f"manifold.{fn}_ms"] = incl_ms(f"manifold.{fn}")
    for fn in ("exterior_angle", "aperture"):
        m[f"entailment.{fn}_calls_per_step"] = calls(f"entailment.{fn}") / n
        m[f"entailment.{fn}_ms"] = incl_ms(f"entailment.{fn}")
    m["uncertainty.uncertainty_calls_per_step"] = calls("uncertainty.uncertainty") / n
    m["uncertainty.uncertainty_ms"] = incl_ms("uncertainty.uncertainty")

    m["synthdata.generate_ms"] = state["timings"].get("synthdata.generate_ms", 0.0)
    m["synthdata.sample_batch_us"] = per_call_ms("synthdata.sample_batch") * 1e3
    m["synthdata.load_ms"] = per_call_ms("synthdata.load")

    m["trainer.materialize_batch_us"] = per_call_ms("trainer.materialize_batch") * 1e3
    m["trainer.adamw_step_us"] = per_call_ms("trainer.adamw_step") * 1e3
    for fn in ("train_step", "corpus_metrics", "save_checkpoint", "load_checkpoint"):
        m[f"trainer.{fn}_ms"] = per_call_ms(f"trainer.{fn}")
    # checkpoint I/O measured outside the traced pass, where the pass has none
    for key in ("trainer.save_checkpoint_ms", "trainer.load_checkpoint_ms",
                "trainer.checkpoint_bytes"):
        if not m.get(key):
            m[key] = state["timings"].get(key, 0)

    for fn in ("evaluate", "distribution_distances", "recall_at_k",
               "uncertainty_correlation"):
        m[f"evalmetrics.{fn}_ms"] = per_call_ms(f"evalmetrics.{fn}")

    m["gradcheck.loss_evals"] = calls("gradcheck.loss_eval") / n
    m["gradcheck.loss_eval_ms"] = per_call_ms("gradcheck.loss_eval")
    m["gradcheck.build_check_problem_ms"] = per_call_ms("gradcheck.build_check_problem")

    m["cli.import_s"] = import_s
    m["cli.export_rows"] = ref.info.get("export_rows", 0)   # set by the checks
    export = summary["by_top"].get(("bench.export", "cli.main"))
    m["cli.export_self_ms"] = export[2] * 1e3 / n if export else 0.0

    # time per layer (self time; "uncovered" is the benchmark loop's own
    # time between spans), as a share of the traced window
    own = dict.fromkeys((*LAYERS, "gc", "trace", "uncovered"), 0.0)
    for name, (_, _, s) in by.items():
        prefix = name.split(".", 1)[0]
        own[_NOT_LAYERS.get(prefix, prefix)] += s
    spanned = sum(e - s for s, e, p in zip(tr.start, tr.end, tr.parent) if p < 0)
    own["uncovered"] += traced.wall_s - spanned
    for layer, seconds in own.items():
        m[f"{layer}.self_pct"] = 100.0 * seconds / traced.wall_s
    m["trace.uncovered_ms_per_step"] = own["uncovered"] * 1e3 / n

    # garbage collector
    gc_s = sum(by[k][1] for k in by if k.startswith("gc."))
    m["gc.pause_ms_per_step"] = gc_s * 1e3 / n
    m["gc.gen2_collections_per_1k_steps"] = calls("gc.gen2") * 1e3 / n
    m["gc.gen2_pause_ms"] = per_call_ms("gc.gen2")

    # operations whose time is in the tail, and how many held a gen-2 pass
    top = tr.tops()
    op_spans = [i for i, p in enumerate(tr.parent)
                if p < 0 and tr.names[tr.name_id[i]] in OP_SPANS]
    gen2 = tr.names.index("gc.gen2") if "gc.gen2" in tr.names else -1
    op_set = set(op_spans)
    with_gen2 = {tr.step_id[top[i]] for i, nid in enumerate(tr.name_id)
                 if nid == gen2 and top[i] in op_set}
    _, _, threshold = tail([t * 1e3 for t in traced.op_s], tail_pct)
    slow = [k for k, t in enumerate(traced.op_s) if t * 1e3 >= threshold]
    m["gc.tail_steps_with_gen2_pct"] = (100.0 * sum(k in with_gen2 for k in slow) / len(slow)
                                        if slow else 0.0)

    # every op span's subtree self times add up to its duration
    own_t = tr.self_times()
    subtree = dict.fromkeys(op_spans, 0.0)
    for i, t in enumerate(own_t):
        if top[i] in subtree:
            subtree[top[i]] += t
    m["trace.coverage_error_us"] = max(
        (abs(subtree[i] - (tr.end[i] - tr.start[i])) * 1e6 for i in op_spans), default=0.0)

    # calibrated to nominal host speed, as the end-to-end ops_per_s
    m["trace.ops_per_s_untraced"] = len(ref.op_s) / ref.cal_wall_s
    m["trace.ops_per_s_traced"] = n / traced.cal_wall_s
    m["trace.overhead_pct"] = 100.0 * (traced.cal_wall_s / ref.cal_wall_s - 1.0)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    head_s = perf() - T0          # the worker's start and the numpy import
    with HostClock(SETUP_TICK_S) as clock:
        head_cal_s = head_s * NOMINAL_S / clock.first_probe_s
        importlib.import_module("hypalign.cli")   # the entry module; imports every layer
        import_s, import_cal_s = clock.lap()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        work = WORKLOADS[args.workload]
        state = work.setup(args.seed)
        rest_s, rest_cal_s = clock.lap()
    setup = {"setup_s": head_s + import_s + rest_s,
             "setup_cal_s": head_cal_s + import_cal_s + rest_cal_s,
             "import_s": import_s}
    if args.mode == "probe":
        print(json.dumps(setup))
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        work.prepare(state, workdir)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "op": work.op, "aliases": work.aliases, "tail_pct": work.tail_pct,
                  **setup, "env": environment()}
        if args.trace == 0:
            out = work.run(state, workdir, seconds=args.seconds)
            # read inside the window, before the checks' replays add their own
            result["peak_rss_mb"] = out.peak_rss_mb
            checks = work.checks(state, out, workdir)
            attempted, failures, info = out.attempted, out.failures, out.info
        else:
            ref = work.run(state, workdir, seconds=args.seconds / 2)
            again = work.fresh(state)
            tracer = Tracer()
            with tracer:
                out = work.run(again, workdir, ops=len(ref.op_s) or 1, tracer=tracer)
            same = work.fingerprint(ref) == work.fingerprint(out)
            checks = work.checks(state, ref, workdir)
            checks["traced_same_outputs"] = (
                same and not out.failures,
                f"traced pass of {len(out.op_s)} ops reproduces the untraced outputs")
            if not out.op_s:
                raise SystemExit("traced pass completed no operation")
            result["layers"] = layer_metrics(tracer, out, ref, state, import_s, work.tail_pct)
            error = result["layers"]["trace.coverage_error_us"]
            checks["spans_account_for_ops"] = (
                error < 1.0, f"self times within an op sum to its wall time +- {error:.3g} us")
            spans = os.path.join(args.out_dir,
                                 f"spans-{args.workload}-seed{args.seed}.json")
            tracer.dump(spans)
            result["spans_file"] = os.path.relpath(spans, ROOT)
            # both passes count; the checks ran on the untraced one
            attempted = ref.attempted + out.attempted
            failures, info = ref.failures + out.failures, ref.info
        result.update(
            op_s=out.op_s, cal_op_s=out.cal_op_s, attempted=attempted, failures=failures,
            wall_s=out.wall_s, cal_wall_s=out.cal_wall_s, factors=out.factors, info=info,
            checks={k: {"ok": bool(ok), "detail": detail} for k, (ok, detail) in checks.items()},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

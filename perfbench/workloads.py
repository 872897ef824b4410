"""The benchmark's workloads: inputs made from the seed, the timed
operation loop, and the correctness checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Operations are

* ``train_default`` / ``train_wide``: one train step, ``sample_batch`` ->
  ``materialize_batch`` -> ``train_step``, run in ``train()``'s order on a
  prefix of the default 5000-step cosine schedule, with ``corpus_metrics``
  records (every 250 steps) and ``save_checkpoint`` calls (every 1000)
  where ``train()`` schedules them;
* ``eval_export``: one in-process ``hypalign eval`` followed by one
  ``hypalign export``, both through ``cli.main``;
* ``check_grads``: one ``gradcheck.run_check_grads`` at the default step,
  tolerance and ``max_coords``.

Why a prefix and not ``train(steps=N)``: every shortened schedule tried on
the default corpus (N = 300, 500, 800, 1000) stops with "exterior angle
undefined for coincident points", while the default 5000-step schedule
completes (the acceptance gate runs it).  Timing a prefix of that schedule
keeps every operation inside the objective's domain.

A ``HypalignError`` (or a non-zero exit code from ``cli.main``) counts as a
failed operation, recorded with its kind and step.  Nothing is retried or
reseeded, and a failure ends the loop: ``train()`` would stop there too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import time
from dataclasses import dataclass, field

from hypalign import cli, gradcheck, synthdata
from hypalign import trainer as tr
from hypalign.errors import HypalignError

from hostspeed import HostClock

TICK_EVERY_S = 0.25      # timer probes inside the long operations (untraced passes)

perf = time.perf_counter

EVAL_SCENES = 512
PREP_STEPS = 20          # default-schedule steps trained into the eval checkpoint
CHECK_RESULTS = 70       # results one run_check_grads returns


@dataclass
class Outcome:
    """What one pass of a workload's operation loop did.  Times come raw
    and calibrated to nominal host speed (``hostspeed``); the window's wall
    time covers the ops and the interval work, not the speed probes."""

    op_s: list = field(default_factory=list)      # raw seconds per completed op
    cal_op_s: list = field(default_factory=list)  # the same, calibrated
    attempted: int = 0
    failures: list = field(default_factory=list)  # {"kind", "step", "message"}
    wall_s: float = 0.0
    cal_wall_s: float = 0.0
    factors: list = field(default_factory=list)   # host slowdown per loop stretch
    peak_rss_mb: float = 0.0                      # after rss_after_ops ops, or at the end
    info: dict = field(default_factory=dict)

    def fail(self, kind: str, step: int, message: str) -> None:
        self.failures.append({"kind": kind, "step": step, "message": message})

    def record(self, raw_s: float, cal_s: float, rss_after_ops: int) -> None:
        """A completed op: its raw and calibrated seconds."""
        self.op_s.append(raw_s)
        self.cal_op_s.append(cal_s)
        if len(self.op_s) == rss_after_ops:
            self.peak_rss_mb = peak_rss_mb()

    def finish(self, clock: HostClock) -> None:
        self.wall_s, self.cal_wall_s, self.factors = clock.wall_s, clock.cal_wall_s, clock.factors
        if not self.peak_rss_mb:          # the window ended before rss_after_ops
            self.peak_rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def params_sha256(store) -> str:
    h = hashlib.sha256()
    for name, var in store.items():
        h.update(name.encode())
        h.update(repr(var.value.shape).encode())
        h.update(var.value.tobytes())
    return h.hexdigest()


def _span(tracer, name):
    return tracer.open(name) if tracer is not None else -1


def _close(tracer, idx):
    if tracer is not None:
        tracer.close(idx)


def _done(out: Outcome, t_start: float, seconds, ops) -> bool:
    if ops is not None and out.attempted >= ops:
        return True
    return seconds is not None and perf() - t_start >= seconds


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class Train:
    """A prefix of the default schedule through trainer's public functions."""

    op = "train step (sample_batch -> materialize_batch -> train_step)"
    # other names these numbers go by, printed in the report: (metric, scale, unit)
    aliases = {"train_steps_per_s": ("ops_per_s", 1.0, "steps/s"),
               "step_ms_p50": ("op_ms_p50", 1.0, "ms"),
               "step_ms_tail": ("op_ms_tail", 1.0, "ms")}

    def __init__(self, name, corpus_args, cfg_args, *, hash_step, tail_pct, rss_after_ops):
        self.name = name
        self.corpus_args = corpus_args
        self.cfg_args = cfg_args
        self.hash_step = hash_step    # every run reaches it; its hash is compared
        self.tail_pct = tail_pct
        # peak memory is read here: after step 0's corpus_metrics and before
        # step 250's, which not every window reaches
        self.rss_after_ops = rss_after_ops

    def setup(self, seed: int) -> dict:
        t0 = perf()
        corpus = synthdata.generate(seed=seed, **self.corpus_args)
        timings = {"synthdata.generate_ms": (perf() - t0) * 1e3}
        cfg = tr.TrainConfig(seed=seed, **self.cfg_args)
        return {**self.fresh({"corpus": corpus, "cfg": cfg}), "timings": timings}

    def fresh(self, state: dict) -> dict:
        store = tr.init_parameters(state["corpus"], state["cfg"])
        return {**state, "store": store, "opt": tr.AdamW(store, state["cfg"])}

    def prepare(self, state, workdir) -> None:
        """Time one checkpoint write and read of the initial state (the
        schedule's first checkpoint, at step 1000, is beyond most runs)."""
        path = os.path.join(workdir, "checkpoint_probe.json")
        t0 = perf()
        tr.save_checkpoint(path, 0, state["store"], state["opt"], state["cfg"])
        t1 = perf()
        tr.load_checkpoint(path)
        state["timings"].update({"trainer.save_checkpoint_ms": (t1 - t0) * 1e3,
                                 "trainer.load_checkpoint_ms": (perf() - t1) * 1e3,
                                 "trainer.checkpoint_bytes": os.path.getsize(path)})

    def run(self, state, workdir, *, seconds=None, ops=None, tracer=None,
            hash_at=None) -> Outcome:
        corpus, cfg, store, opt = state["corpus"], state["cfg"], state["store"], state["opt"]
        hash_at = self.hash_step if hash_at is None else hash_at
        out = Outcome()
        nonfinite = 0
        t_start = perf()
        with open(os.path.join(workdir, "metrics.jsonl"), "w") as fh, \
                HostClock() as clock:
            step = 0
            while not _done(out, t_start, seconds, ops):
                out.attempted += 1
                if tracer is not None:
                    tracer.step = step
                try:
                    if step % cfg.eval_interval == 0:
                        span = _span(tracer, "bench.interval")
                        fh.write(json.dumps(tr.corpus_metrics(store, corpus, cfg, step)) + "\n")
                        _close(tracer, span)
                    t0 = perf()
                    span = _span(tracer, "bench.step")
                    idx = tr.sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
                    batch = tr.materialize_batch(store, idx)
                    report = tr.train_step(store, opt, batch, cfg, tr.learning_rate(step, cfg))
                    _close(tracer, span)
                    op_s = perf() - t0
                    done = step + 1
                    if done % cfg.checkpoint_interval == 0 and done < cfg.steps:
                        span = _span(tracer, "bench.interval")
                        tr.save_checkpoint(os.path.join(workdir, f"checkpoint_{done:06d}.json"),
                                           done, store, opt, cfg)
                        _close(tracer, span)
                except HypalignError as err:
                    out.fail(err.kind, step, str(err))
                    clock.lap()
                    break
                # the step shares its stretch with any interval work; both
                # ran at the stretch's speed
                lap_raw, lap_cal = clock.lap()
                out.record(op_s, op_s * lap_cal / lap_raw, self.rss_after_ops)
                if not math.isfinite(float(report.total.value)):
                    nonfinite += 1
                if done == hash_at:
                    out.info["params_sha256"] = params_sha256(store)
                step = done
        out.finish(clock)
        out.info.update(steps=len(out.op_s), nonfinite_losses=nonfinite, hash_step=hash_at,
                        final_sha256=params_sha256(store))
        return out

    def fingerprint(self, out: Outcome):
        return out.info["steps"], out.info["final_sha256"]

    def checks(self, state, out: Outcome, workdir) -> dict:
        """Loss finite at every step; the parameters after ``hash_step``
        steps hash the same when the prefix is replayed from scratch."""
        checks = {"loss_finite": (out.info["nonfinite_losses"] == 0 and not out.failures,
                                  f"{out.info['steps']} steps, "
                                  f"{out.info['nonfinite_losses']} non-finite")}
        k = min(self.hash_step, out.info["steps"])
        replay = self.run(self.fresh(state), workdir, ops=k, hash_at=k)
        first = out.info.get("params_sha256") if k == self.hash_step else None
        if first is None:
            first = "missing: run ended before the hash step"
        checks["params_sha256_replay"] = (first == replay.info.get("params_sha256"),
                                          f"step {k}: {first}")
        out.info["params_sha256_step"] = k
        out.info["params_sha256"] = first
        return checks


# ---------------------------------------------------------------------------
# eval + export through the CLI
# ---------------------------------------------------------------------------

_ERROR_KIND = re.compile(r"error kind=(\w+)")


def _cli(argv) -> tuple[int, str]:
    """One in-process ``hypalign`` command; its stderr is kept, not shown."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class EvalExport:
    op = "hypalign eval then hypalign export (cli.main, in process)"
    name = "eval_export"
    tail_pct = 50.0          # about 15 ops a run: no higher percentile has 10 beyond
    rss_after_ops = 2
    aliases: dict = {}       # eval_s and export_s are printed from the op records

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "timings": {}}

    def fresh(self, state):
        return state

    def prepare(self, state, workdir) -> None:
        """The 512x4 corpus file and a checkpoint trained for a few steps of
        the default schedule (input generation; not timed)."""
        seed = state["seed"]
        t0 = perf()
        corpus = synthdata.generate(num_scenes=EVAL_SCENES, parts_per_scene=4, seed=seed)
        state["timings"]["synthdata.generate_ms"] = (perf() - t0) * 1e3
        state["corpus"] = os.path.join(workdir, "corpus.jsonl")
        synthdata.save(corpus, state["corpus"])
        cfg = tr.TrainConfig(seed=seed)
        store = tr.init_parameters(corpus, cfg)
        opt = tr.AdamW(store, cfg)
        for step in range(PREP_STEPS):
            idx = tr.sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
            tr.train_step(store, opt, tr.materialize_batch(store, idx), cfg,
                          tr.learning_rate(step, cfg))
        state["checkpoint"] = os.path.join(workdir, "checkpoint.json")
        t0 = perf()
        tr.save_checkpoint(state["checkpoint"], PREP_STEPS, store, opt, cfg)
        state["timings"]["trainer.save_checkpoint_ms"] = (perf() - t0) * 1e3
        state["timings"]["trainer.checkpoint_bytes"] = os.path.getsize(state["checkpoint"])

    def run(self, state, workdir, *, seconds=None, ops=None, tracer=None) -> Outcome:
        report = os.path.join(workdir, "report.json")
        csv_path = os.path.join(workdir, "embeddings.csv")
        common = ["--checkpoint", state["checkpoint"], "--corpus", state["corpus"]]
        out = Outcome(info={"eval_s": [], "export_s": [], "report_sha256": [],
                            "csv_sha256": [], "csv_rows": [],
                            "eval_cal_s": [], "export_cal_s": []})
        t_start = perf()
        with HostClock(None if tracer else TICK_EVERY_S) as clock:
            while not _done(out, t_start, seconds, ops):
                out.attempted += 1
                if tracer is not None:
                    tracer.step = out.attempted - 1
                times = []                  # (raw, calibrated) seconds per command
                for command, path in (("eval", report), ("export", csv_path)):
                    clock.lap()             # ends the stretch of the loop's own work
                    span = _span(tracer, f"bench.{command}")
                    code, err = _cli([command, *common, "--out", path])
                    _close(tracer, span)
                    times.append(clock.lap())
                    if code != 0:
                        kind = _ERROR_KIND.search(err)
                        out.fail(kind.group(1) if kind else f"exit{code}", out.attempted - 1,
                                 err.strip().splitlines()[-1] if err.strip() else "")
                        break
                if out.failures:
                    break
                (eval_s, eval_cal_s), (export_s, export_cal_s) = times
                out.record(eval_s + export_s, eval_cal_s + export_cal_s, self.rss_after_ops)
                out.info["eval_s"].append(eval_s)
                out.info["export_s"].append(export_s)
                out.info["eval_cal_s"].append(eval_cal_s)
                out.info["export_cal_s"].append(export_cal_s)
                out.info["report_sha256"].append(_sha256_file(report))
                out.info["csv_sha256"].append(_sha256_file(csv_path))
                with open(csv_path) as fh:
                    out.info["csv_rows"].append(sum(1 for _ in fh) - 1)
        out.finish(clock)
        return out

    def fingerprint(self, out: Outcome):
        return set(out.info["report_sha256"]), set(out.info["csv_sha256"])

    def checks(self, state, out: Outcome, workdir) -> dict:
        reports, csvs = self.fingerprint(out)
        rows = sorted(set(out.info["csv_rows"]))
        want = 10 * EVAL_SCENES
        out.info["export_rows"] = rows[-1] if rows else 0
        return {
            "commands_exit_0": (not out.failures, f"{len(out.op_s)} eval+export pairs"),
            "report_identical": (len(reports) == 1, f"{len(reports)} distinct report(s)"),
            "csv_identical": (len(csvs) == 1, f"{len(csvs)} distinct CSV(s)"),
            "csv_rows": (rows == [want], f"{rows} data rows, want {want}"),
        }


# ---------------------------------------------------------------------------
# finite-difference gradient check
# ---------------------------------------------------------------------------

class CheckGrads:
    op = "gradcheck.run_check_grads (default step, tolerance, max_coords)"
    name = "check_grads"
    tail_pct = 50.0          # a handful of ops a run
    rss_after_ops = 1
    aliases = {"check_grads_s": ("op_ms_p50", 1e-3, "s")}

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "timings": {}}

    def fresh(self, state):
        return state

    def prepare(self, state, workdir) -> None:
        """The check problem's seed: the workload seed, or the next one the
        problem admits.  ``build_check_problem`` refuses a seed whose
        configuration lies within the kink guard band and documents the
        remedy, choosing another seed (seed 96 is one).  This is input
        selection before any timed operation; a failure of the chosen
        problem's check is never retried."""
        seed = state["seed"]
        while True:
            try:
                gradcheck.build_check_problem(seed)
                break
            except HypalignError:
                seed += 1
        state["check_seed"] = seed

    def run(self, state, workdir, *, seconds=None, ops=None, tracer=None) -> Outcome:
        seed = state["check_seed"]
        out = Outcome(info={"check_seed": seed, "table_sha256": [], "results": []})
        t_start = perf()
        with HostClock(None if tracer else TICK_EVERY_S) as clock:
            while not _done(out, t_start, seconds, ops):
                out.attempted += 1
                if tracer is not None:
                    tracer.step = out.attempted - 1
                clock.lap()                 # ends the stretch of the loop's own work
                span = _span(tracer, "bench.check_grads")
                try:
                    results, passed = gradcheck.run_check_grads(seed)
                except HypalignError as err:
                    out.fail(err.kind, out.attempted - 1, str(err))
                    break
                finally:
                    _close(tracer, span)
                out.record(*clock.lap(), self.rss_after_ops)
                out.info["results"].append(len(results))
                out.info["table_sha256"].append(
                    hashlib.sha256(gradcheck.format_results(results).encode()).hexdigest())
                if not passed or len(results) != CHECK_RESULTS:
                    failed = [f"{r.loss}/{r.param}" for r in results if not r.passed]
                    out.fail("gradcheck", out.attempted - 1,
                             f"{len(results)} results, failing: {failed}")
                    break
        out.finish(clock)
        return out

    def fingerprint(self, out: Outcome):
        return set(out.info["table_sha256"])

    def checks(self, state, out: Outcome, workdir) -> dict:
        counts = out.info["results"]
        tables = self.fingerprint(out)
        return {
            "check_grads_pass": (not out.failures and counts
                                 and all(c == CHECK_RESULTS for c in counts),
                                 f"seed {out.info['check_seed']}: {counts} results per run"),
            "check_grads_identical": (len(tables) == 1,
                                      f"{len(tables)} distinct result table(s)"),
        }


WORKLOADS = {
    w.name: w for w in (
        Train("train_default", {"num_scenes": 64, "parts_per_scene": 4}, {},
              hash_step=50, tail_pct=98.0, rss_after_ops=200),
        Train("train_wide", {"num_scenes": 512, "parts_per_scene": 4, "latent_dim": 64},
              {"table_dim": 64, "batch_size": 256}, hash_step=10, tail_pct=90.0,
              rss_after_ops=60),
        EvalExport(),
        CheckGrads(),
    )
}

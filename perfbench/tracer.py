"""Outside-in tracer for the benchmark's traced runs.

Spans are recorded around calls into hypalign's public functions by
replacing each function *where it is looked up*: modules import functions
by name, so ``lift`` as called by the losses is patched as
``hypalign.losses.lift``, not ``hypalign.manifold.lift``.  The package
itself carries no hook.  :meth:`Tracer.install` patches,
:meth:`Tracer.uninstall` restores every original.

Besides spans the tracer keeps three kinds of counts:

* built tape nodes, by counting ``Var`` constructions per op name;
* reachable tape nodes, by walking the graph from every root handed to
  ``autodiff.gradients`` (the loss whose backward sweep runs);
* Python garbage-collector passes, through ``gc.callbacks``; each pass
  becomes a ``gc.gen<N>`` span, so its pause is not charged to the layer
  that happened to be running.

Spans (name, start, end, parent span, step id) live in flat in-memory lists
and are written out once at the end.  A span's self time is its duration
minus the durations of its children.  The graph walk is a ``trace.census``
span, so the tracer's own bookkeeping shows as its own layer.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (module where the name is looked up, attribute, span name).  The span
# name's first component is the layer the function belongs to.
WRAPPED = [
    # synthdata
    ("hypalign.trainer", "sample_batch", "synthdata.sample_batch"),
    ("hypalign.cli", "load_corpus", "synthdata.load"),
    # trainer
    ("hypalign.trainer", "materialize_batch", "trainer.materialize_batch"),
    ("hypalign.gradcheck", "materialize_batch", "trainer.materialize_batch"),
    ("hypalign.trainer", "train_step", "trainer.train_step"),
    ("hypalign.trainer.AdamW", "step", "trainer.adamw_step"),
    ("hypalign.trainer", "corpus_metrics", "trainer.corpus_metrics"),
    ("hypalign.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("hypalign.cli", "load_checkpoint", "trainer.load_checkpoint"),
    ("hypalign.cli", "store_from_payload", "trainer.store_from_payload"),
    # losses
    ("hypalign.trainer", "total_loss", "losses.total_loss"),
    ("hypalign.gradcheck", "total_loss", "losses.total_loss"),
    ("hypalign.losses", "contrastive", "losses.contrastive"),
    ("hypalign.gradcheck", "contrastive", "losses.contrastive"),
    ("hypalign.losses", "entail_leaky", "losses.entail_leaky"),
    ("hypalign.gradcheck", "entail_leaky", "losses.entail_leaky"),
    ("hypalign.gradcheck", "entail_hinge", "losses.entail_hinge"),
    ("hypalign.losses", "calibration", "losses.calibration"),
    ("hypalign.gradcheck", "calibration", "losses.calibration"),
    ("hypalign.losses", "adaptive_temperatures", "losses.adaptive_temperatures"),
    ("hypalign.gradcheck", "contrastive_total", "losses.contrastive_total"),
    ("hypalign.gradcheck", "entailment_total", "losses.entailment_total"),
    # manifold
    ("hypalign.losses", "lift", "manifold.lift"),
    ("hypalign.evalmetrics", "lift", "manifold.lift"),
    ("hypalign.gradcheck", "lift", "manifold.lift"),
    ("hypalign.losses", "pairwise_distance", "manifold.pairwise_distance"),
    ("hypalign.evalmetrics", "pairwise_distance", "manifold.pairwise_distance"),
    ("hypalign.trainer", "hyperbolic_radius", "manifold.hyperbolic_radius"),
    ("hypalign.evalmetrics", "hyperbolic_radius", "manifold.hyperbolic_radius"),
    ("hypalign.cli", "hyperbolic_radius", "manifold.hyperbolic_radius"),
    ("hypalign.uncertainty", "hyperbolic_radius", "manifold.hyperbolic_radius"),
    # entailment
    ("hypalign.losses", "exterior_angle", "entailment.exterior_angle"),
    ("hypalign.gradcheck", "exterior_angle", "entailment.exterior_angle"),
    ("hypalign.losses", "aperture", "entailment.aperture"),
    ("hypalign.gradcheck", "aperture", "entailment.aperture"),
    # uncertainty
    ("hypalign.losses", "uncertainty", "uncertainty.uncertainty"),
    ("hypalign.trainer", "uncertainty", "uncertainty.uncertainty"),
    ("hypalign.evalmetrics", "uncertainty", "uncertainty.uncertainty"),
    ("hypalign.cli", "uncertainty", "uncertainty.uncertainty"),
    ("hypalign.losses", "normalize_uncertainty", "uncertainty.normalize_uncertainty"),
    ("hypalign.losses", "entropy", "uncertainty.entropy"),
    # evalmetrics
    ("hypalign.cli", "evaluate", "evalmetrics.evaluate"),
    ("hypalign.evalmetrics", "recall_at_k", "evalmetrics.recall_at_k"),
    ("hypalign.evalmetrics", "uncertainty_correlation", "evalmetrics.uncertainty_correlation"),
    ("hypalign.evalmetrics", "distribution_distances", "evalmetrics.distribution_distances"),
    ("hypalign.trainer", "distribution_distances", "evalmetrics.distribution_distances"),
    ("hypalign.trainer", "scaled_tables", "evalmetrics.scaled_tables"),
    ("hypalign.evalmetrics", "scaled_tables", "evalmetrics.scaled_tables"),
    ("hypalign.cli", "scaled_tables", "evalmetrics.scaled_tables"),
    # gradcheck
    ("hypalign.gradcheck", "run_check_grads", "gradcheck.run_check_grads"),
    ("hypalign.gradcheck", "build_check_problem", "gradcheck.build_check_problem"),
    # cli
    ("hypalign.cli", "main", "cli.main"),
]

# spans of the functions wrapped specially in Tracer.install: the backward
# pass (after a census of its graph), and the finite-difference check (whose
# loss function argument is wrapped too)
GRADIENTS = "autodiff.gradients"
FD_CHECK = "gradcheck.finite_diff_check"
LOSS_EVAL = "gradcheck.loss_eval"
CENSUS = "trace.census"


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step_id: list[int] = []
        self.step = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.built: Counter = Counter()        # Var constructions by op name
        self.reachable: Counter = Counter()    # nodes reachable from backward roots
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step_id.append(self.step)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- counts ----------------------------------------------------------------
    def _census(self, root) -> None:
        seen = {id(root)}
        stack = [root]
        while stack:
            node = stack.pop()
            self.reachable[op_name(node.name, node._parents)] += 1
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf()
            return
        self.name_id.append(self._nid(f"gc.gen{info['generation']}"))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step_id.append(self.step)
        self.start.append(self._gc_start)
        self.end.append(perf())

    # -- install / uninstall -----------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from hypalign import autodiff

        for path, attr, name in WRAPPED:
            owner = _resolve(path)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))

        tracer = self
        gradients = autodiff.gradients

        def traced_gradients(root, params):
            idx = tracer.open(CENSUS)
            tracer._census(root)
            tracer.close(idx)
            idx = tracer.open(GRADIENTS)
            try:
                return gradients(root, params)
            finally:
                tracer.close(idx)

        self._patch(autodiff, "gradients", traced_gradients)

        gradcheck = importlib.import_module("hypalign.gradcheck")
        fd_check = self._wrap(gradcheck.finite_diff_check, FD_CHECK)
        self._patch(gradcheck, "finite_diff_check",
                    lambda f, *a, **k: fd_check(tracer._wrap(f, LOSS_EVAL), *a, **k))

        init = autodiff.Var.__init__
        built = self.built

        def counting_init(var, value, name="leaf", _parents=(), _vjp=None):
            built[op_name(name, _parents)] += 1
            init(var, value, name, _parents, _vjp)

        self._patch(autodiff.Var, "__init__", counting_init)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def tops(self) -> list[int]:
        """Per span, the index of the top-level span it runs under."""
        top = list(range(len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                top[i] = top[p]      # parents are recorded before children
        return top

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus
        the same split by the enclosing top-level span's name."""
        own = self.self_times()
        top = self.tops()
        by_name: dict = defaultdict(lambda: [0, 0.0, 0.0])
        by_top: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            for key, table in ((name, by_name),
                               ((self.names[self.name_id[top[i]]], name), by_top)):
                rec = table[key]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own[i]
        return {"by_name": dict(by_name), "by_top": dict(by_top)}

    def dump(self, path) -> None:
        """Write every span as one JSON document (columns, not rows)."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name_id": self.name_id,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "step": self.step_id,
            }, fh)


def op_name(name: str, parents) -> str:
    """Tape op of a node: its own name, or ``leaf`` for parameters (whose
    name is the parameter's)."""
    return name if parents or name == "stop_gradient" else "leaf"

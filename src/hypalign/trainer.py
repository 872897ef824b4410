"""Optimization loop over free embedding tables.

Embeddings are learnable tangent vectors, one per concept and view (the
encoder stand-in); modality-wide scalars ``c_img``/``c_txt`` scale them
before the lift, and curvature and all three temperatures are learnable
alongside.  Updates use Adam with decoupled weight decay (decay skipped for
the scalar parameters), a cosine learning-rate schedule with linear
warm-up, and post-step projection of curvature and temperatures onto their
valid ranges.

Determinism: batches are drawn from per-step seed streams ``[seed, step]``,
so a fixed seed gives a bit-identical trajectory and resuming from a
checkpoint replays the uninterrupted run exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, value_of
from .errors import ContractViolationError, HypalignError, NumericalConsistencyError
from .losses import (GROUPS, LAYOUT, MODALITIES, SCALES, Batch, LossConfig, LossReport,
                     TemperatureSet, total_loss)
from .manifold import KAPPA_MAX, KAPPA_MIN, Manifold, hyperbolic_radius
from .evalmetrics import distribution_distances, scaled_tables
from .synthdata import BatchIndices, Corpus, sample_batch
from .uncertainty import uncertainty

CHECKPOINT_FORMAT_VERSION = 1
TAU_FLOOR = 0.01
# learnable temperatures: TemperatureSet field -> parameter name
TEMPERATURE_PARAMS = {"tau_global": "tau_g", "tau_local": "tau_l",
                      "tau_global_local": "tau_gl"}
# the scalar parameters, which AdamW does not decay
DECAY_EXCLUDE = ("kappa", *TEMPERATURE_PARAMS.values(), *SCALES)
_EVAL_STREAM_TAG = 2**31 - 1   # batch-stream tag reserved for the eval batch


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale training configuration; scale-free regime constants keep
    their reference values."""

    steps: int = 5000
    batch_size: int = 32
    lr: float = 5e-4               # peak learning rate
    warmup_steps: int = 200
    weight_decay: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    eval_interval: int = 250
    checkpoint_interval: int = 1000
    seed: int = 7
    table_dim: int = 16
    init_scale: float = 0.02
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 2:
            raise ContractViolationError("steps must be >= 0 and batch_size >= 2")
        if self.eval_interval < 1 or self.checkpoint_interval < 1:
            raise ContractViolationError("intervals must be >= 1")


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_parameters(corpus: Corpus, cfg: TrainConfig) -> ParameterStore:
    """Fresh parameter store.

    Curvature starts at 1.0, temperatures at their configured initial
    values (0.07/0.07/0.06 by default), and the modality scales at
    ``1/sqrt(table_dim)``.  Tables start near the origin at ``init_scale``
    times the corpus view vectors (the encoder-output stand-in), so initial
    geometry carries the corpus semantics; a seeded random projection adapts
    dimensions when ``table_dim != latent_dim``.
    """
    n = cfg.table_dim
    latent_dim = corpus.params.latent_dim
    if latent_dim == n:
        project = lambda v: v
    else:
        rng = np.random.default_rng([cfg.seed, 0x9E37])
        proj = rng.normal(size=(latent_dim, n)) / math.sqrt(n)
        project = lambda v: v @ proj
    tables = {group: cfg.init_scale * project(np.stack(
                  [getattr(c, f"{src.modality}_view") for c in corpus.concepts(src.level)]))
              for group, src in LAYOUT.items()}
    return parameter_store(tables, 1.0, cfg.loss.temps)


def parameter_store(tables: dict, kappa: float, temps: TemperatureSet) -> ParameterStore:
    """A store over each group's embedding table (``tables`` maps group
    names to ``(rows, n)`` arrays), the curvature, the temperatures at
    ``temps``' values and the modality scales at ``1/sqrt(n)``, registered
    in the order every store keeps."""
    store = ParameterStore()
    for group, src in LAYOUT.items():
        store.register(src.table, tables[group])
    store.register("kappa", kappa)
    for field_name, name in TEMPERATURE_PARAMS.items():
        store.register(name, float(value_of(getattr(temps, field_name))))
    n = tables[GROUPS[0]].shape[1]
    for name in SCALES:
        store.register(name, 1.0 / math.sqrt(n))
    return store


def _gather_scaled(table, rows, scale):
    """``scale * table[rows]`` as one tape node; the table's adjoint
    scatter-adds duplicate rows."""
    tv, cv = value_of(table), value_of(scale)
    picked = tv[rows]

    def vjp(g):
        acc = np.zeros(tv.shape)
        np.add.at(acc, rows, g * cv)
        return (acc, np.sum(g * picked))

    return ad.fused(cv * picked, "gather_scale", (table, scale), vjp)


def materialize_batch(store: ParameterStore, idx: BatchIndices) -> Batch:
    """Scaled tangent embeddings for the four groups of a sampled batch;
    ``store`` maps parameter names to Vars, or to plain arrays for plain
    embeddings."""
    return Batch(**{group: _gather_scaled(store[src.table], idx.rows(src.level),
                                          store[src.scale])
                    for group, src in LAYOUT.items()})


def loss_config_with_vars(cfg: LossConfig, store: ParameterStore) -> LossConfig:
    """Loss config whose temperatures are the live learnable Vars."""
    temps = TemperatureSet(**{f: store[name] for f, name in TEMPERATURE_PARAMS.items()})
    return replace(cfg, temps=temps)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay, skipped for ``DECAY_EXCLUDE``."""

    def __init__(self, store: ParameterStore, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        self.m = {name: np.zeros_like(var.value) for name, var in store.items()}
        self.v = {name: np.zeros_like(var.value) for name, var in store.items()}

    def step(self, grads: dict, lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, var in self.store.items():
            g = grads[name]
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * g * g
            update = (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + cfg.adam_eps)
            if name not in DECAY_EXCLUDE:
                update = update + cfg.weight_decay * var.value
            var.value = var.value - lr * update


def project_parameters(store: ParameterStore) -> None:
    """Clamp curvature and temperatures back into their valid ranges
    (projected-gradient semantics: gradients are taken pre-clamp)."""
    store["kappa"].value = np.clip(store["kappa"].value, KAPPA_MIN, KAPPA_MAX)
    for name in TEMPERATURE_PARAMS.values():
        store[name].value = np.maximum(store[name].value, TAU_FLOOR)


def learning_rate(step: int, cfg: TrainConfig) -> float:
    """Linear warm-up to the peak, then a cosine decay to zero."""
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = max(1, cfg.steps - cfg.warmup_steps)
    t = (step - cfg.warmup_steps) / span
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# single step and metrics
# ---------------------------------------------------------------------------

def train_step(store: ParameterStore, opt: AdamW, batch: Batch, cfg: TrainConfig,
               lr: float) -> LossReport:
    """Forward, backward, optimizer update, projection.

    Projects once up front as well, so an externally corrupted curvature or
    temperature is restored before it can poison the forward pass.
    """
    project_parameters(store)
    manifold = Manifold(store["kappa"])
    report = total_loss(batch, loss_config_with_vars(cfg.loss, store), manifold)
    total = float(value_of(report.total))
    if not math.isfinite(total):
        raise NumericalConsistencyError(f"non-finite training loss {total!r}")
    grads = ad.gradients(report.total, store.as_dict())
    opt.step(grads, lr)
    project_parameters(store)
    return report


def _eval_indices(corpus: Corpus, cfg: TrainConfig) -> BatchIndices:
    """The fixed eval batch's rows."""
    return sample_batch(corpus, cfg.batch_size, [cfg.seed, _EVAL_STREAM_TAG])


def corpus_metrics(store: ParameterStore, corpus: Corpus, cfg: TrainConfig,
                   step: int) -> dict:
    """One metrics record: losses on the fixed eval batch at the learned
    temperatures, plus corpus-wide radius/uncertainty statistics and
    part-vs-whole radius distribution distances (per modality)."""
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa)
    eval_idx = _eval_indices(corpus, cfg)
    tables = scaled_tables(store)
    eval_batch = Batch(**{group: tables[group][eval_idx.rows(src.level)]
                          for group, src in LAYOUT.items()})
    report = total_loss(eval_batch, loss_config_with_vars(cfg.loss, store), manifold)

    record = {"step": step, "lr": learning_rate(step, cfg)}
    record.update({f"loss_{k}": v for k, v in report.to_floats().items()})
    radii = {name: hyperbolic_radius(emb, manifold) for name, emb in tables.items()}
    for name in GROUPS:
        record[f"mean_radius_{name}"] = float(np.mean(radii[name]))
        record[f"mean_uncertainty_{name}"] = float(np.mean(uncertainty(tables[name])))
    for modality in MODALITIES:
        w1, w2, mmd = distribution_distances(radii[f"part_{modality}"],
                                             radii[f"whole_{modality}"])
        record[f"radius_w1_{modality}"] = w1
        record[f"radius_w2_{modality}"] = w2
        record[f"radius_mmd_{modality}"] = mmd
    record["kappa"] = kappa
    for name in (*TEMPERATURE_PARAMS.values(), *SCALES):
        record[name] = float(value_of(store[name]))
    return record


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, step: int, store: ParameterStore, opt: AdamW,
                    cfg: TrainConfig) -> None:
    """Single-file JSON checkpoint (format documented in the README);
    float round-tripping is exact, so resuming is bit-identical."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config_hash": config_hash(cfg),
        "config": asdict(cfg),
        "step": step,
        "opt_t": opt.t,
        "params": {n: {"shape": list(v.value.shape), "data": v.value.ravel().tolist()}
                   for n, v in store.items()},
        "opt_m": {n: opt.m[n].ravel().tolist() for n in opt.m},
        "opt_v": {n: opt.v[n].ravel().tolist() for n in opt.v},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ContractViolationError(
            f"unsupported checkpoint format {payload.get('format_version')!r}"
        )
    return payload


def store_from_payload(payload: dict) -> ParameterStore:
    """Standalone parameter store from a checkpoint (for eval/export)."""
    store = ParameterStore()
    for name, rec in payload["params"].items():
        store.register(name, np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"]))
    return store


def restore(payload: dict, store: ParameterStore, opt: AdamW,
            cfg: TrainConfig) -> int:
    """Load a checkpoint payload into live state; returns the step to
    resume from.  The configuration hash must match exactly."""
    if payload["config_hash"] != config_hash(cfg):
        raise ContractViolationError(
            "checkpoint was produced with a different configuration"
        )
    store.load(store_from_payload(payload).snapshot())
    for name in opt.m:
        shape = store[name].value.shape
        opt.m[name] = np.asarray(payload["opt_m"][name], dtype=np.float64).reshape(shape)
        opt.v[name] = np.asarray(payload["opt_v"][name], dtype=np.float64).reshape(shape)
    opt.t = int(payload["opt_t"])
    return int(payload["step"])


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def _write_failure_dump(out_dir, step: int, batch: str, idx: BatchIndices,
                        store: ParameterStore, err: HypalignError) -> None:
    """``failure_dump.json``: the error, the step, which batch (``train`` or
    ``eval``) and its rows, and the small parameters."""
    dump = {
        "step": step,
        "kind": err.kind,
        "message": str(err),
        "batch": batch,
        "scene_rows": idx.scene_rows.tolist(),
        "part_rows": idx.part_rows.tolist(),
        "params": {n: value_of(v).ravel().tolist()
                   for n, v in store.items() if value_of(v).size <= 4},
    }
    with open(os.path.join(out_dir, "failure_dump.json"), "w") as fh:
        json.dump(dump, fh, indent=2)


def _checked_metrics(store: ParameterStore, corpus: Corpus, cfg: TrainConfig,
                     step: int, out_dir) -> dict:
    """:func:`corpus_metrics`, leaving a failure dump with the eval batch's
    rows if it raises."""
    try:
        return corpus_metrics(store, corpus, cfg, step)
    except HypalignError as err:
        _write_failure_dump(out_dir, step, "eval", _eval_indices(corpus, cfg), store, err)
        raise


def train(corpus: Corpus, cfg: TrainConfig, out_dir, *, resume=None) -> dict:
    """Run the loop, writing ``metrics.jsonl`` and checkpoints under
    ``out_dir``; returns a summary with final paths and metrics.

    A metrics record at step ``k`` describes the state after ``k`` completed
    updates; records are written at every eval interval and always at the
    final step.  Checkpoints land at every checkpoint interval and at the
    end (``checkpoint_final.json``).  A package error in a training step or
    in the metrics leaves ``failure_dump.json`` behind before it propagates.
    """
    os.makedirs(out_dir, exist_ok=True)
    store = init_parameters(corpus, cfg)
    opt = AdamW(store, cfg)
    start = 0
    if resume is not None:
        start = restore(load_checkpoint(resume), store, opt, cfg)
        if start > cfg.steps:
            raise ContractViolationError(
                f"checkpoint step {start} beyond configured steps {cfg.steps}"
            )

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    metrics_fh = open(metrics_path, "a" if resume is not None else "w")
    last_record = None
    try:
        for step in range(start, cfg.steps):
            if step % cfg.eval_interval == 0:
                last_record = _checked_metrics(store, corpus, cfg, step, out_dir)
                metrics_fh.write(json.dumps(last_record) + "\n")
            batch_idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
            batch = materialize_batch(store, batch_idx)
            lr = learning_rate(step, cfg)
            try:
                train_step(store, opt, batch, cfg, lr)
            except HypalignError as err:
                _write_failure_dump(out_dir, step, "train", batch_idx, store, err)
                raise
            done = step + 1
            if done % cfg.checkpoint_interval == 0 and done < cfg.steps:
                save_checkpoint(
                    os.path.join(out_dir, f"checkpoint_{done:06d}.json"),
                    done, store, opt, cfg,
                )
        last_record = _checked_metrics(store, corpus, cfg, cfg.steps, out_dir)
        metrics_fh.write(json.dumps(last_record) + "\n")
    finally:
        metrics_fh.close()
    final_path = os.path.join(out_dir, "checkpoint_final.json")
    save_checkpoint(final_path, cfg.steps, store, opt, cfg)
    return {
        "checkpoint": final_path,
        "metrics": metrics_path,
        "final_record": last_record,
        "store": store,
    }

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
from .losses import Batch, LossConfig, LossReport, TemperatureSet, total_loss
from .manifold import KAPPA_MAX, KAPPA_MIN, Manifold, hyperbolic_radius
from .evalmetrics import distribution_distances, scaled_tables
from .synthdata import BatchIndices, Corpus, sample_batch
from .uncertainty import uncertainty

CHECKPOINT_FORMAT_VERSION = 1
TAU_FLOOR = 0.01
DECAY_EXCLUDE = ("kappa", "tau_g", "tau_l", "tau_gl", "c_img", "c_txt")
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
    decay_exclude: tuple = DECAY_EXCLUDE
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


def config_to_dict(cfg: TrainConfig) -> dict:
    d = asdict(cfg)
    d["decay_exclude"] = list(cfg.decay_exclude)
    return d


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _view_matrix(corpus: Corpus, level: str, view: str) -> np.ndarray:
    concepts = corpus.scenes if level == "scene" else corpus.parts
    return np.stack([getattr(c, f"{view}_view") for c in concepts])


def init_parameters(corpus: Corpus, cfg: TrainConfig) -> ParameterStore:
    """Fresh parameter store.

    Curvature starts at 1.0, temperatures at their configured initial
    values (0.07/0.07/0.06 by default), and the modality scales at
    ``1/sqrt(table_dim)``.  Tables start near the origin at ``init_scale``
    times the corpus view vectors (the encoder-output stand-in), so initial
    geometry carries the corpus semantics; a seeded random projection adapts
    dimensions when ``table_dim != latent_dim``.
    """
    store = ParameterStore()
    n = cfg.table_dim
    latent_dim = corpus.params.latent_dim
    if latent_dim == n:
        project = lambda v: v
    else:
        rng = np.random.default_rng([cfg.seed, 0x9E37])
        proj = rng.normal(size=(latent_dim, n)) / math.sqrt(n)
        project = lambda v: v @ proj
    for level, view, name in (
        ("scene", "image", "table_scene_img"),
        ("scene", "text", "table_scene_txt"),
        ("part", "image", "table_part_img"),
        ("part", "text", "table_part_txt"),
    ):
        store.register(name, cfg.init_scale * project(_view_matrix(corpus, level, view)))
    store.register("kappa", 1.0)
    store.register("tau_g", float(value_of(cfg.loss.temps.tau_global)))
    store.register("tau_l", float(value_of(cfg.loss.temps.tau_local)))
    store.register("tau_gl", float(value_of(cfg.loss.temps.tau_global_local)))
    store.register("c_img", 1.0 / math.sqrt(n))
    store.register("c_txt", 1.0 / math.sqrt(n))
    return store


def materialize_batch(store: ParameterStore, idx: BatchIndices) -> Batch:
    """Scaled tangent embeddings for the four groups of a sampled batch."""
    return Batch(
        whole_image=ad.mul(store["c_img"], ad.take_rows(store["table_scene_img"], idx.scene_rows)),
        whole_text=ad.mul(store["c_txt"], ad.take_rows(store["table_scene_txt"], idx.scene_rows)),
        part_image=ad.mul(store["c_img"], ad.take_rows(store["table_part_img"], idx.part_rows)),
        part_text=ad.mul(store["c_txt"], ad.take_rows(store["table_part_txt"], idx.part_rows)),
    )


def loss_config_with_vars(cfg: LossConfig, store: ParameterStore) -> LossConfig:
    """Loss config whose temperatures are the live learnable Vars."""
    temps = TemperatureSet(
        tau_global=store["tau_g"],
        tau_local=store["tau_l"],
        tau_global_local=store["tau_gl"],
    )
    return replace(cfg, temps=temps)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay and a per-name exclusion list."""

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
            if name not in cfg.decay_exclude:
                update = update + cfg.weight_decay * var.value
            var.value = var.value - lr * update


def project_parameters(store: ParameterStore) -> None:
    """Clamp curvature and temperatures back into their valid ranges
    (projected-gradient semantics: gradients are taken pre-clamp)."""
    store["kappa"].value = np.clip(store["kappa"].value, KAPPA_MIN, KAPPA_MAX)
    for name in ("tau_g", "tau_l", "tau_gl"):
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
    manifold = Manifold(store["kappa"], cfg.table_dim)
    report = total_loss(batch, loss_config_with_vars(cfg.loss, store), manifold)
    total = float(value_of(report.total))
    if not math.isfinite(total):
        raise NumericalConsistencyError(f"non-finite training loss {total!r}")
    grads = ad.gradients(report.total, store.as_dict())
    opt.step(grads, lr)
    project_parameters(store)
    return report


def corpus_metrics(store: ParameterStore, corpus: Corpus, cfg: TrainConfig,
                   step: int) -> dict:
    """One metrics record: losses on the fixed eval batch plus corpus-wide
    radius/uncertainty statistics and part-vs-whole radius distribution
    distances (per modality)."""
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa, cfg.table_dim)
    eval_idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, _EVAL_STREAM_TAG])
    tables = scaled_tables(store)
    eval_batch = Batch(
        whole_image=tables["whole_image"][eval_idx.scene_rows],
        whole_text=tables["whole_text"][eval_idx.scene_rows],
        part_image=tables["part_image"][eval_idx.part_rows],
        part_text=tables["part_text"][eval_idx.part_rows],
    )
    report = total_loss(eval_batch, cfg.loss, manifold)

    record = {"step": step, "lr": learning_rate(step, cfg)}
    record.update({f"loss_{k}": v for k, v in report.to_floats().items()})
    radii = {name: hyperbolic_radius(emb, manifold) for name, emb in tables.items()}
    for name in ("whole_image", "whole_text", "part_image", "part_text"):
        record[f"mean_radius_{name}"] = float(np.mean(radii[name]))
        record[f"mean_uncertainty_{name}"] = float(np.mean(uncertainty(tables[name])))
    for modality, part, whole in (("image", "part_image", "whole_image"),
                                  ("text", "part_text", "whole_text")):
        w1, w2, mmd = distribution_distances(radii[part], radii[whole])
        record[f"radius_w1_{modality}"] = w1
        record[f"radius_w2_{modality}"] = w2
        record[f"radius_mmd_{modality}"] = mmd
    record["kappa"] = kappa
    for name in ("tau_g", "tau_l", "tau_gl", "c_img", "c_txt"):
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
        "config": config_to_dict(cfg),
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
    values = {}
    for name, rec in payload["params"].items():
        values[name] = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
    store.load(values)
    for name in opt.m:
        shape = store[name].value.shape
        opt.m[name] = np.asarray(payload["opt_m"][name], dtype=np.float64).reshape(shape)
        opt.v[name] = np.asarray(payload["opt_v"][name], dtype=np.float64).reshape(shape)
    opt.t = int(payload["opt_t"])
    return int(payload["step"])


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def train(corpus: Corpus, cfg: TrainConfig, out_dir, *, resume=None) -> dict:
    """Run the loop, writing ``metrics.jsonl`` and checkpoints under
    ``out_dir``; returns a summary with final paths and metrics.

    A metrics record at step ``k`` describes the state after ``k`` completed
    updates; records are written at every eval interval and always at the
    final step.  Checkpoints land at every checkpoint interval and at the
    end (``checkpoint_final.json``).
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
                last_record = corpus_metrics(store, corpus, cfg, step)
                metrics_fh.write(json.dumps(last_record) + "\n")
            batch_idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
            batch = materialize_batch(store, batch_idx)
            lr = learning_rate(step, cfg)
            try:
                train_step(store, opt, batch, cfg, lr)
            except HypalignError:
                dump = {
                    "step": step,
                    "scene_rows": batch_idx.scene_rows.tolist(),
                    "part_rows": batch_idx.part_rows.tolist(),
                    "params": {n: value_of(v).ravel().tolist()
                               for n, v in store.items() if value_of(v).size <= 4},
                }
                with open(os.path.join(out_dir, "failure_dump.json"), "w") as fh:
                    json.dump(dump, fh, indent=2)
                raise
            done = step + 1
            if done % cfg.checkpoint_interval == 0 and done < cfg.steps:
                save_checkpoint(
                    os.path.join(out_dir, f"checkpoint_{done:06d}.json"),
                    done, store, opt, cfg,
                )
        last_record = corpus_metrics(store, corpus, cfg, cfg.steps)
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

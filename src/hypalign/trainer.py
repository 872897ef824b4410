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
from . import floatbytes
from .autodiff import ParameterStore, value_of
from .errors import (ContractViolationError, DomainError, HypalignError,
                     NumericalConsistencyError, check_domains)
from .losses import (GROUPS, LAYOUT, MODALITIES, SCALES, TAU_FLOOR, Batch, LossConfig,
                     LossReport, TemperatureSet, nonfinite_group, total_loss)
# hyperbolic_radius and distribution_distances are not called here; the
# benchmark's tracer (perfbench/tracer.py) wraps them in this module
from .manifold import KAPPA_MAX, KAPPA_MIN, Manifold, hyperbolic_radius  # noqa: F401
from .evalmetrics import distribution_distances, radius_distributions, scaled_tables  # noqa: F401
from .synthdata import BatchIndices, Corpus, sample_batch
from .uncertainty import uncertainty

CHECKPOINT_FORMAT_VERSION = 2
# learnable temperatures: TemperatureSet field -> parameter name
TEMPERATURE_PARAMS = {"tau_global": "tau_g", "tau_local": "tau_l",
                      "tau_global_local": "tau_gl"}
# the range each clamped scalar parameter is projected back into after a
# step, so the range a checkpoint's value must lie in
_CLAMPED = {"kappa": (KAPPA_MIN, KAPPA_MAX),
            **dict.fromkeys(TEMPERATURE_PARAMS.values(), (TAU_FLOOR, math.inf))}
# the scalar parameters, which AdamW does not decay
DECAY_EXCLUDE = ("kappa", *TEMPERATURE_PARAMS.values(), *SCALES)
TABLES = tuple(src.table for src in LAYOUT.values())
_EVAL_STREAM_TAG = 2**31 - 1   # batch-stream tag reserved for the eval batch
ADAMW_BLOCK = 65536            # entries per AdamW block: its temporaries stay in cache


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
        check_domains(self, _TRAIN_DOMAINS)
        # a row out of the batch for k steps moves by (beta1/sqrt(beta2))**k
        # times its last update, which grows without bound past this
        if self.beta1**2 > self.beta2:
            raise DomainError("beta2", f"{self.beta2!r} below beta1**2 = {self.beta1**2!r}")


_TRAIN_DOMAINS = {
    "steps": "[0, inf)", "batch_size": "[2, inf)", "warmup_steps": "[0, inf)",
    "eval_interval": "[1, inf)", "checkpoint_interval": "[1, inf)", "seed": "[0, inf)",
    "table_dim": "[1, inf)", "init_scale": "(0, inf)", "lr": "(0, inf)",
    "beta1": "[0, 1)", "beta2": "[0, 1)", "adam_eps": "(0, inf)", "weight_decay": "[0, inf)",
}


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
    n, latent_dim = cfg.table_dim, corpus.params.latent_dim
    views = {group: corpus.views[src.level, src.modality] for group, src in LAYOUT.items()}
    if latent_dim != n:
        rng = np.random.default_rng([cfg.seed, 0x9E37])
        proj = rng.normal(size=(latent_dim, n)) / math.sqrt(n)
        views = {group: view @ proj for group, view in views.items()}
    return parameter_store({group: cfg.init_scale * view for group, view in views.items()},
                           1.0, cfg.loss.temps)


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


def _gather_scaled(sources):
    """``scale * table[rows]`` for each ``(table, rows, scale)`` of
    ``sources``, stacked along a leading group axis, as one tape node; a
    table's adjoint assigns distinct rows (every training batch's) and
    scatter-adds repeated ones.  A plain table may carry a leading stack
    axis, ``(K, rows, n)``: the group then reads ``K`` tables, and every
    group is broadcast to that stack.  A plain scale may carry a run axis,
    ``(K,)`` (``autodiff.per_run``): its group reads the table's rows once
    per run, or the rows of a stacked table's ``K`` runs."""
    values, picked, scales = [], [], []
    for t, rows, c in sources:
        tv, cv = value_of(t), value_of(c)
        p = tv[..., rows, :]
        if cv.ndim and p.ndim == 2:
            p = np.broadcast_to(p, (cv.size, *p.shape))
        values.append((tv, rows))
        picked.append(p)
        scales.append(ad.per_run(c, p.shape, 2))
    out = np.empty((len(picked), *np.broadcast_shapes(*(p.shape for p in picked))))
    for cv, p, o in zip(scales, picked, out):
        np.multiply(cv, p, out=o)

    def vjp(g):
        adj = []
        for (tv, rows), cv, p, gk in zip(values, scales, picked, g):
            acc = np.zeros(tv.shape)
            if np.unique(rows).size == len(rows):
                acc[rows] = gk * cv
            else:
                np.add.at(acc, rows, gk * cv)
            adj += (acc, (gk * p).sum())
        return adj

    return ad.fused(out, "gather_scale", tuple(x for t, _, c in sources for x in (t, c)), vjp)


def materialize_batch(store: ParameterStore, idx: BatchIndices) -> Batch:
    """Scaled tangent embeddings of a sampled batch's four groups, gathered
    into the batch's stack by one node; ``store`` maps parameter names to
    Vars, or to plain arrays for plain embeddings.  A non-finite entry read
    from it is a state training reached: a numerical error."""
    groups = _gather_scaled([(store[src.table], idx.rows(src.level), store[src.scale])
                             for src in LAYOUT.values()])
    bad = nonfinite_group(groups)
    if bad is not None:
        raise NumericalConsistencyError(f"non-finite entries in {bad} read from the store")
    return Batch(groups)


def loss_config_with_vars(cfg: LossConfig, store: ParameterStore) -> LossConfig:
    """Loss config whose temperatures are ``store``'s (live Vars, or values).
    A :class:`ParameterStore` keeps the same Vars for its whole life, so its
    config is built once per ``cfg`` and kept on the store."""
    kept = getattr(store, "loss_cfg", None)
    if kept is not None and kept[0] is cfg:
        return kept[1]
    temps = TemperatureSet(**{f: store[name] for f, name in TEMPERATURE_PARAMS.items()})
    out = replace(cfg, temps=temps)
    if isinstance(store, ParameterStore):
        store.loss_cfg = (cfg, out)
    return out


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay, skipped for ``DECAY_EXCLUDE``.

    The update runs over the store's flat buffer in blocks of
    ``ADAMW_BLOCK`` entries, each a fixed sequence of in-place ufunc calls
    with the per-parameter formula's operation order, so every entry gets
    the bits that formula gives.  The moments are flat too; ``m``/``v`` map
    each parameter name to its view.  The decayed parameters must come
    before the scalars in the store, so decay covers a prefix.
    """

    def __init__(self, store: ParameterStore, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        names = store.names()
        decayed = [name not in DECAY_EXCLUDE for name in names]
        if decayed != sorted(decayed, reverse=True):
            raise ContractViolationError("decayed parameters must precede the scalars")
        self._decay_end = sum(store[n].value.size for n, d in zip(names, decayed) if d)
        self._flat = store.flat
        self._m, self._v, self._g = (np.zeros_like(store.flat) for _ in range(3))
        self.m, self.v, self._grads = (store.views(buf) for buf in (self._m, self._v, self._g))
        self._scratch = (np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK))

    def step(self, grads: dict, lr: float) -> None:
        cfg, flat = self.cfg, self._flat
        for name, var in self.store.items():
            if var.value.base is not flat:
                raise ContractViolationError(
                    f"parameter '{name}' no longer views the store's flat buffer; "
                    "write into its value in place")
            self._grads[name][...] = grads[name]
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for lo in range(0, flat.size, ADAMW_BLOCK):
            hi = min(lo + ADAMW_BLOCK, flat.size)
            p, g, m, v = flat[lo:hi], self._g[lo:hi], self._m[lo:hi], self._v[lo:hi]
            u, w = (buf[:hi - lo] for buf in self._scratch)
            # m = b1*m + (1-b1)*g
            np.multiply(g, 1.0 - b1, out=w)
            m *= b1
            m += w
            # v = b2*v + ((1-b2)*g)*g
            np.multiply(g, 1.0 - b2, out=w)
            w *= g
            v *= b2
            v += w
            # u = (m/bc1) / (sqrt(v/bc2) + eps)
            np.divide(m, bc1, out=u)
            np.divide(v, bc2, out=w)
            np.sqrt(w, out=w)
            w += cfg.adam_eps
            u /= w
            # u += wd*p on the decayed prefix
            k = min(hi, self._decay_end) - lo
            if k > 0:
                np.multiply(p[:k], cfg.weight_decay, out=w[:k])
                u[:k] += w[:k]
            # p = p - lr*u
            u *= lr
            p -= u


def project_parameters(store: ParameterStore) -> None:
    """Clamp curvature and temperatures back into their valid ranges, in
    place (projected-gradient semantics: gradients are taken pre-clamp)."""
    for name, (low, high) in _CLAMPED.items():
        value = store[name].value
        np.minimum(np.maximum(value, low, out=value), high, out=value)


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
    temperature is restored before it can poison the forward pass.  Returns
    the forward's report as values, with no tape graph behind it: ``total``
    a parentless ``Var``, the components, ``leak`` and ``u`` plain arrays.
    A caller that keeps it pins none of the step's arrays or VJPs.
    """
    project_parameters(store)
    manifold = Manifold(store["kappa"])
    report = total_loss(batch, loss_config_with_vars(cfg.loss, store), manifold)
    total = float(value_of(report.total))
    if not math.isfinite(total):
        raise NumericalConsistencyError(f"non-finite training loss {total!r}")
    grads = ad.gradients(report.total, store.as_dict())
    values = replace(report, total=ad.Var(value_of(report.total)),
                     components={name: value_of(c) for name, c in report.components.items()},
                     leak=value_of(report.leak), u=value_of(report.u))
    del report              # the graph goes before the update runs
    opt.step(grads, lr)
    project_parameters(store)
    return values


def _eval_indices(corpus: Corpus, cfg: TrainConfig) -> BatchIndices:
    """The fixed eval batch's rows."""
    return sample_batch(corpus, cfg.batch_size, [cfg.seed, _EVAL_STREAM_TAG])


def corpus_metrics(store: ParameterStore, corpus: Corpus, cfg: TrainConfig,
                   step: int) -> dict:
    """One metrics record: losses on the fixed eval batch at the learned
    temperatures, plus corpus-wide mean radius and uncertainty per group
    and part-vs-whole radius distribution distances per modality, the
    radii as :func:`evalmetrics.radius_distributions` computes them."""
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa)
    plain = {name: value_of(var) for name, var in store.items()}   # plain values: no tape node
    eval_batch = materialize_batch(plain, _eval_indices(corpus, cfg))
    report = total_loss(eval_batch, loss_config_with_vars(cfg.loss, plain), manifold)

    record = {"step": step, "lr": learning_rate(step, cfg)}
    record.update({f"loss_{k}": v for k, v in report.to_floats().items()})
    tables = scaled_tables(store)
    radii = radius_distributions(tables, manifold)
    for name, src in LAYOUT.items():
        level = name.split("_")[0]      # "whole" or "part"
        record[f"mean_radius_{name}"] = radii[src.modality][f"mean_{level}_radius"]
        record[f"mean_uncertainty_{name}"] = float(np.mean(uncertainty(tables[name])))
    for modality in MODALITIES:
        for stat in ("w1", "w2", "mmd"):
            record[f"radius_{stat}_{modality}"] = radii[modality][stat]
    record["kappa"] = kappa
    for name in (*TEMPERATURE_PARAMS.values(), *SCALES):
        record[name] = float(value_of(store[name]))
    return record


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, step: int, store: ParameterStore, opt: AdamW,
                    cfg: TrainConfig) -> None:
    """Single-file JSON checkpoint (format documented in the README); every
    array is stored as its exact float64 bytes, so resuming is bit-identical."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config_hash": config_hash(cfg),
        "config": asdict(cfg),
        "step": step,
        "opt_t": opt.t,
        "params": {n: {"shape": list(v.value.shape), "data": floatbytes.encode(v.value)}
                   for n, v in store.items()},
        "opt_m": {n: floatbytes.encode(opt.m[n]) for n in opt.m},
        "opt_v": {n: floatbytes.encode(opt.v[n]) for n in opt.v},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


# the fields eval, export and --resume read, with the JSON type of each
_CHECKPOINT_FIELDS = {"config_hash": str, "step": int, "opt_t": int,
                      "params": dict, "opt_m": dict, "opt_v": dict}


def load_checkpoint(path) -> dict:
    """Read a checkpoint file; a file that is not one, or whose ``step`` or
    ``opt_t`` is not the non-negative integer a run writes, raises
    ``ContractViolationError`` naming it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # not JSON, or an integer past the digit limit
            raise ContractViolationError(f"{path}: checkpoint is not JSON: {err}") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ContractViolationError(f"{path}: unsupported checkpoint format {version!r}")
    missing = [name for name in _CHECKPOINT_FIELDS if name not in payload]
    if missing:
        raise ContractViolationError(f"{path}: checkpoint lacks field(s) {missing}")
    wrong = [name for name, kind in _CHECKPOINT_FIELDS.items()
             if not isinstance(payload[name], kind)]
    if wrong:
        raise ContractViolationError(f"{path}: checkpoint field(s) {wrong} of the wrong type")
    bad = {name: payload[name] for name in ("step", "opt_t")
           if type(payload[name]) is not int or payload[name] < 0}
    if bad:
        raise ContractViolationError(
            f"{path}: checkpoint counter(s) {bad} not the non-negative integer a run writes")
    return payload


def _as_array(data, shape):
    """``data``, base64 text of float64 bytes, as a writable array of
    ``shape``, or None if it is not one."""
    raw = floatbytes.decode(data, math.prod(shape))
    return None if raw is None else np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


def _valid_shape(name: str, shape, width) -> bool:
    """Whether ``shape`` is a list of non-negative ints fit for parameter
    ``name``: ``[rows, width]`` for a table (any positive width when
    ``width`` is None), ``[]`` for a scalar."""
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        return False
    if name not in TABLES:
        return shape == []
    return len(shape) == 2 and shape[1] > 0 and width in (None, shape[1])


def store_from_payload(payload: dict, path) -> ParameterStore:
    """Standalone parameter store from the checkpoint ``path`` was read from
    (for eval/export), registered in the order every store keeps; a missing,
    unknown or malformed parameter raises naming both, as does a value no
    training run leaves behind: a non-finite entry, a curvature outside
    ``[KAPPA_MIN, KAPPA_MAX]``, a temperature below ``TAU_FLOOR``, or a
    table row whose lift overflows."""
    params, names = payload["params"], (*TABLES, *DECAY_EXCLUDE)
    unknown = sorted(set(params).difference(names))
    if unknown:
        raise ContractViolationError(f"{path}: checkpoint holds unknown parameter(s) {unknown}")
    store, width = ParameterStore(), None
    for name in names:
        if name not in params:
            raise ContractViolationError(f"{path}: checkpoint lacks parameter {name!r}")
        rec = params[name] if isinstance(params[name], dict) else {}
        shape = rec.get("shape")
        if not _valid_shape(name, shape, width):
            raise ContractViolationError(
                f"{path}: checkpoint parameter {name!r} has 'shape' {shape!r}; tables need "
                "[rows, width] of one common positive width, scalars []")
        value = _as_array(rec.get("data"), shape)
        if value is None:
            raise ContractViolationError(
                f"{path}: checkpoint parameter {name!r} needs 'data' holding the base64 "
                f"float64 bytes of its 'shape' {shape}")
        if not np.all(np.isfinite(value)):
            raise ContractViolationError(
                f"{path}: checkpoint parameter {name!r} holds a non-finite entry")
        if name in _CLAMPED:
            low, high = _CLAMPED[name]
            if not low <= value <= high:
                raise ContractViolationError(
                    f"{path}: checkpoint parameter {name!r} {float(value)!r} outside "
                    f"[{low}, {high}]")
        store.register(name, value)
        if name in TABLES:
            width = shape[1]
    _check_lift_range(store, path)
    return store


_LIFT_LIMIT = math.log(np.finfo(np.float64).max)    # cosh overflows past it


def _check_lift_range(store: ParameterStore, path) -> None:
    """Raise naming the table whose scaled row ``r`` lifts past the float
    range: ``sqrt(kappa) |c r| >= log(float max)``, with ``c`` the row's
    modality scale."""
    sqrt_k = np.sqrt(value_of(store["kappa"]))
    with np.errstate(over="ignore"):
        for group, scaled in scaled_tables(store).items():
            src = LAYOUT[group]
            radius = sqrt_k * ad._row_norm(scaled)
            over = radius >= _LIFT_LIMIT
            if over.any():
                row = int(np.argmax(over))
                raise ContractViolationError(
                    f"{path}: checkpoint parameter {src.table!r} row {row} lifts past the "
                    f"float range: sqrt(kappa)*|{src.scale}*row| = {float(radius[row])!r}, "
                    f"not below {_LIFT_LIMIT:.2f}")


def check_fit(store: ParameterStore, corpus: Corpus, path, corpus_path="the corpus",
              width=None) -> None:
    """Raise naming checkpoint ``path`` and the first table of ``store``
    without one row per concept of its level in ``corpus`` (read from
    ``corpus_path``) or, given ``width``, that many columns."""
    for src in LAYOUT.values():
        (rows, cols), concepts = store[src.table].value.shape, len(corpus.ids[src.level])
        if rows != concepts:
            raise ContractViolationError(f"{path}: parameter {src.table!r} has {rows} rows "
                                         f"but {corpus_path} holds {concepts} {src.level} concepts")
        if width not in (None, cols):
            raise ContractViolationError(f"{path}: parameter {src.table!r} has {cols} columns "
                                         f"but this run's table_dim is {width}")


def restore(path, corpus: Corpus, cfg: TrainConfig) -> tuple[ParameterStore, AdamW, int]:
    """A run's state resumed from checkpoint ``path``: its store (built as
    ``eval`` builds it), an :class:`AdamW` over it with the saved moments,
    and the step.  The config hash must match, and each table must fit
    ``corpus`` and ``cfg.table_dim`` (:func:`check_fit`; the hash covers
    neither the corpus, which sets the rows, nor a hand-edited width).  Each
    moment entry must name a parameter and be finite, and a second-moment
    entry not negative, as a run leaves them."""
    payload = load_checkpoint(path)
    if payload["config_hash"] != config_hash(cfg):
        raise ContractViolationError(
            f"{path}: checkpoint was produced with a different configuration")
    store = store_from_payload(payload, path)
    check_fit(store, corpus, path, width=cfg.table_dim)
    opt = AdamW(store, cfg)
    unknown = [f"{field}[{name!r}]" for field in ("opt_m", "opt_v")
               for name in payload[field] if name not in opt.m]
    if unknown:
        raise ContractViolationError(f"{path}: checkpoint {unknown[0]} names no parameter")
    for name in opt.m:
        shape = store[name].value.shape
        for field, moments in (("opt_m", opt.m), ("opt_v", opt.v)):
            value = _as_array(payload[field].get(name), shape)
            if value is None:
                raise ContractViolationError(
                    f"{path}: checkpoint {field}[{name!r}] needs the base64 float64 "
                    f"bytes of shape {shape}")
            if not np.all(np.isfinite(value)) or (field == "opt_v" and np.any(value < 0)):
                raise ContractViolationError(
                    f"{path}: checkpoint {field}[{name!r}] holds a non-finite entry"
                    f"{', or a negative one' if field == 'opt_v' else ''}")
            moments[name][...] = value
    opt.t = int(payload["opt_t"])
    return store, opt, int(payload["step"])


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def _write_failure_dump(out_dir, step: int, batch: str, idx: BatchIndices,
                        store: ParameterStore, err: HypalignError) -> None:
    """``failure_dump.json``: the error, the step, which batch (``train`` or
    ``eval``) and its rows, and the scalar parameters (``DECAY_EXCLUDE``)."""
    dump = {
        "step": step,
        "kind": err.kind,
        "message": str(err),
        "batch": batch,
        "scene_rows": idx.scene_rows.tolist(),
        "part_rows": idx.part_rows.tolist(),
        "params": {n: value_of(store[n]).ravel().tolist() for n in DECAY_EXCLUDE},
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
    A ``resume`` checkpoint's :func:`restore` replaces the fresh state.
    """
    os.makedirs(out_dir, exist_ok=True)
    if resume is None:
        store = init_parameters(corpus, cfg)
        opt, start = AdamW(store, cfg), 0
    else:
        store, opt, start = restore(resume, corpus, cfg)
        if start > cfg.steps:
            raise ContractViolationError(
                f"{resume}: checkpoint step {start} beyond configured steps {cfg.steps}"
            )

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    last_record = None
    # numpy's warnings stay off stderr: the finiteness checks on the batch
    # read, the loss and the backward name an overflow
    with open(metrics_path, "a" if resume is not None else "w") as metrics_fh, \
            np.errstate(all="ignore"):
        for step in range(start, cfg.steps):
            if step % cfg.eval_interval == 0:
                last_record = _checked_metrics(store, corpus, cfg, step, out_dir)
                metrics_fh.write(json.dumps(last_record) + "\n")
            batch_idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
            lr = learning_rate(step, cfg)
            try:
                train_step(store, opt, materialize_batch(store, batch_idx), cfg, lr)
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
    final_path = os.path.join(out_dir, "checkpoint_final.json")
    save_checkpoint(final_path, cfg.steps, store, opt, cfg)
    return {
        "checkpoint": final_path,
        "metrics": metrics_path,
        "final_record": last_record,
        "store": store,
    }

"""Trainer checks: initialization values, schedule shape, decay exclusion,
clamps, determinism, and checkpoint resume."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest

from hypalign.autodiff import value_of
from hypalign.entailment import ConeParams
from hypalign.errors import ContractViolationError, DomainError, NumericalConsistencyError
from hypalign.evalmetrics import scaled_tables
from hypalign.losses import LAYOUT, TAU_FLOOR, Batch, LossConfig, TemperatureSet, total_loss
from hypalign.manifold import Manifold
from hypalign.synthdata import GeneratorParams, generate, sample_batch
from hypalign.trainer import (
    _EVAL_STREAM_TAG,
    _as_array,
    DECAY_EXCLUDE,
    TEMPERATURE_PARAMS,
    AdamW,
    TrainConfig,
    config_hash,
    init_parameters,
    learning_rate,
    load_checkpoint,
    materialize_batch,
    parameter_store,
    restore,
    save_checkpoint,
    store_from_payload,
    train,
    train_step,
)
from hypalign.uncertainty import LN2, uncertainty
import hypalign.autodiff as ad
import hypalign.trainer as trainer_module

from _checkpoint_data import decode, encode


@pytest.fixture(scope="module")
def small_corpus():
    return generate(num_scenes=8, parts_per_scene=2, latent_dim=16, seed=5)


def small_config(**kw):
    base = dict(steps=12, batch_size=4, eval_interval=4, checkpoint_interval=6,
                warmup_steps=3, seed=5)
    base.update(kw)
    return TrainConfig(**base)


class TestInit:
    def test_reference_values(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        assert float(value_of(store["kappa"])) == 1.0
        assert float(value_of(store["tau_gl"])) == 0.06
        assert float(value_of(store["tau_g"])) == 0.07
        assert float(value_of(store["tau_l"])) == 0.07
        assert float(value_of(store["c_img"])) == 1.0 / math.sqrt(16)
        assert float(value_of(store["c_txt"])) == 1.0 / math.sqrt(16)
        assert value_of(store["table_scene_img"]).shape == (8, 16)
        assert value_of(store["table_part_txt"]).shape == (16, 16)

    def test_initial_uncertainties_near_ln2(self, small_corpus):
        store = init_parameters(small_corpus, small_config())
        c = float(value_of(store["c_img"]))
        u = value_of(uncertainty(c * value_of(store["table_part_img"])))
        assert np.all(np.abs(u - LN2) < 0.02)

    def test_same_seed_identical(self, small_corpus):
        a = init_parameters(small_corpus, small_config())
        b = init_parameters(small_corpus, small_config())
        for name in a.names():
            assert np.array_equal(value_of(a[name]), value_of(b[name]))

    def test_dimension_projection(self):
        corpus = generate(num_scenes=4, parts_per_scene=1, latent_dim=10, seed=1)
        store = init_parameters(corpus, small_config(table_dim=6, batch_size=2))
        assert value_of(store["table_scene_img"]).shape == (4, 6)


class TestScheduleAndOptimizer:
    def test_schedule_endpoints(self):
        cfg = TrainConfig(steps=5000, warmup_steps=200)
        assert learning_rate(0, cfg) == 0.0
        assert learning_rate(200, cfg) == cfg.lr
        assert learning_rate(100, cfg) == pytest.approx(cfg.lr / 2)
        assert learning_rate(4999, cfg) <= 1e-2 * cfg.lr
        assert learning_rate(5000, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_betas_need_beta1_squared_at_most_beta2(self):
        # past the rule an idle row's update grows like (beta1/sqrt(beta2))**k
        TrainConfig(beta1=0.5, beta2=0.25)
        TrainConfig(beta1=0.0, beta2=0.0)
        with pytest.raises(DomainError, match=r"^beta2 0\.2 below beta1\*\*2 = 0\.25$") as err:
            TrainConfig(beta1=0.5, beta2=0.2)
        assert err.value.field == "beta2"

    @pytest.mark.parametrize("build, field, detail", [
        (lambda: TrainConfig(steps=2.5), "steps", "2.5 is not an integer"),
        (lambda: TrainConfig(seed=2.0), "seed", "2.0 is not an integer"),
        (lambda: TrainConfig(eval_interval=1.5), "eval_interval", "1.5 is not an integer"),
        (lambda: TrainConfig(batch_size=True), "batch_size", "True is not an integer"),
        (lambda: TrainConfig(lr=True), "lr", "True is not a real number"),
        (lambda: LossConfig(alpha=True), "alpha", "True is not a real number"),
        (lambda: ConeParams(aperture_k=True), "aperture_k", "True is not a real number"),
        (lambda: TrainConfig(loss=LossConfig(temps=TemperatureSet(tau_global=True))),
         "tau_global", "True is not a real number"),
    ])
    def test_config_value_of_the_wrong_kind(self, build, field, detail):
        # the Python API reaches what a config file's int and float casters
        # cannot: an int field holds an integer, and no field a bool
        with pytest.raises(DomainError, match=f"^{field} {detail}$") as err:
            build()
        assert err.value.field == field

    def test_config_values_of_the_right_kind(self):
        assert TrainConfig(lr=1, steps=np.int64(3)).steps == 3

    # every int, float and bool field of the configuration classes, given a
    # string, and a bool field an int or a numeric field a bool
    SCALAR_FIELDS = [(cls, name, value)
                     for cls in (TrainConfig, LossConfig, ConeParams, GeneratorParams)
                     for name, hint in get_type_hints(cls).items() if hint in (int, float, bool)
                     for value in ("1", 1 if hint is bool else True)]

    @pytest.mark.parametrize("cls, name, value", SCALAR_FIELDS, ids=[
        f"{cls.__name__}-{name}-{value!r}" for cls, name, value in SCALAR_FIELDS])
    def test_every_scalar_field_refuses_another_kind(self, cls, name, value):
        with pytest.raises(DomainError) as err:
            cls(**{name: value})
        assert err.value.field == name

    def test_zero_lr_leaves_parameters_unchanged(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        before = {name: var.value.copy() for name, var in store.items()}
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg, lr=0.0)
        after = {name: var.value.copy() for name, var in store.items()}
        for name in before:
            assert np.array_equal(before[name], after[name]), name
        assert opt.t == 1

    def test_descent_majority_over_seeds(self):
        # one small-lr step decreases the loss on the same batch for most seeds
        from hypalign.losses import total_loss
        from hypalign.manifold import Manifold
        from hypalign.trainer import loss_config_with_vars
        wins = 0
        for seed in range(20):
            corpus = generate(num_scenes=6, parts_per_scene=2, latent_dim=8, seed=seed)
            cfg = small_config(seed=seed, table_dim=8, batch_size=4, warmup_steps=0,
                               steps=1, lr=1e-4)
            store = init_parameters(corpus, cfg)
            opt = AdamW(store, cfg)
            idx = sample_batch(corpus, 4, [seed, 0])

            def loss_now():
                batch = materialize_batch(store, idx)
                m = Manifold(store["kappa"])
                return float(value_of(
                    total_loss(batch, loss_config_with_vars(cfg.loss, store), m).total
                ))

            before = loss_now()
            train_step(store, opt, materialize_batch(store, idx), cfg, lr=1e-4)
            wins += loss_now() < before
        assert wins >= 15, f"descent on {wins}/20 seeds"

    def test_step_report_is_values_of_the_pre_update_forward(self, small_corpus):
        # no field keeps the step's graph alive, and each value is the
        # forward's before the update, bit for bit
        from hypalign.trainer import loss_config_with_vars
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        live = total_loss(materialize_batch(store, idx), loss_config_with_vars(cfg.loss, store),
                          Manifold(store["kappa"]))
        want = {"total": value_of(live.total).copy(), "leak": value_of(live.leak).copy(),
                "u": value_of(live.u).copy(),
                **{name: value_of(c).copy() for name, c in live.components.items()}}
        report = train_step(store, opt, materialize_batch(store, idx), cfg, lr=1e-3)
        assert isinstance(report.total, ad.Var) and not report.total._parents
        got = {"total": report.total.value, "leak": report.leak, "u": report.u,
               **report.components}
        assert not any(ad.is_var(x) for name, x in got.items() if name != "total")
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes(), name
        # the report still finishes again against another leak
        assert report.with_leak(2.0 * want["leak"]).to_floats() == \
            live.with_leak(2.0 * want["leak"]).to_floats()

    def test_clamp_projection(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        store["kappa"].value[...] = 50.0
        store["tau_g"].value[...] = 1e-5
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg, lr=1e-4)
        assert float(value_of(store["kappa"])) == 10.0
        assert float(value_of(store["tau_g"])) >= 0.01

    def test_rebound_parameter_rejected(self, small_corpus):
        # a value rebound off the store's flat buffer would miss every update
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        store["kappa"].value = np.asarray(2.0)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        with pytest.raises(ContractViolationError, match="'kappa'"):
            train_step(store, opt, materialize_batch(store, idx), cfg, lr=1e-4)

    def test_weight_decay_exclusion_matches_decay_free_oracle(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 1])
        batch = materialize_batch(store, idx)
        from hypalign.losses import total_loss
        from hypalign.manifold import Manifold
        from hypalign.trainer import loss_config_with_vars
        rep = total_loss(batch, loss_config_with_vars(cfg.loss, store),
                         Manifold(store["kappa"]))
        grads = ad.gradients(rep.total, store.as_dict())
        before = {name: var.value.copy() for name, var in store.items()}
        # exactly the scalar parameters are excluded from decay
        assert set(DECAY_EXCLUDE) == {n for n in store.names() if before[n].ndim == 0}
        opt.step(grads, lr=1e-3)
        # decay-free oracle update per parameter
        for name in store.names():
            g = grads[name]
            m_hat = (1 - cfg.beta1) * g / (1 - cfg.beta1)
            v_hat = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
            plain = before[name] - 1e-3 * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            if name in DECAY_EXCLUDE:
                np.testing.assert_allclose(value_of(store[name]), plain, rtol=1e-12)
            else:
                expected = plain - 1e-3 * cfg.weight_decay * before[name]
                np.testing.assert_allclose(value_of(store[name]), expected, rtol=1e-12)

    def test_abort_on_nonfinite_loss(self, small_corpus, tmp_path):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        store["table_scene_img"].value[0, 0] = np.nan
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        with pytest.raises(NumericalConsistencyError,
                           match="non-finite entries in whole_image read from the store"):
            # a non-finite table entry is a state training reached: caught
            # as the batch is read from the store, before the loss
            materialize_batch(store, idx)


class TestTrainLoop:
    def test_zero_steps_checkpoint_equals_init(self, small_corpus, tmp_path):
        cfg = small_config(steps=0)
        out = train(small_corpus, cfg, tmp_path / "run0")
        payload = load_checkpoint(out["checkpoint"])
        assert payload["step"] == 0
        fresh = init_parameters(small_corpus, cfg)
        loaded = store_from_payload(payload, out["checkpoint"])
        for name in fresh.names():
            assert np.array_equal(value_of(fresh[name]), value_of(loaded[name]))

    def test_same_seed_byte_identical_metrics(self, small_corpus, tmp_path):
        cfg = small_config()
        a = train(small_corpus, cfg, tmp_path / "a")
        b = train(small_corpus, cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint_final.json").read_bytes() == \
            (tmp_path / "b" / "checkpoint_final.json").read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, small_corpus, tmp_path):
        cfg = small_config(steps=12, checkpoint_interval=6)
        full = train(small_corpus, cfg, tmp_path / "full")
        mid = tmp_path / "full" / "checkpoint_000006.json"
        assert mid.exists()
        resumed = train(small_corpus, cfg, tmp_path / "resumed", resume=mid)
        full_ckpt = (tmp_path / "full" / "checkpoint_final.json").read_text()
        res_ckpt = (tmp_path / "resumed" / "checkpoint_final.json").read_text()
        assert full_ckpt == res_ckpt
        # overlapping metrics records agree exactly
        full_recs = {json.loads(l)["step"]: l for l in
                     (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()}
        for line in (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines():
            step = json.loads(line)["step"]
            assert full_recs[step] == line

    def test_resume_builds_no_fresh_store(self, small_corpus, tmp_path, monkeypatch):
        # a resumed run's state is the checkpoint's store alone
        cfg = small_config(steps=12, checkpoint_interval=6)
        train(small_corpus, cfg, tmp_path / "full")

        def refuse(*args, **kwargs):
            raise AssertionError("init_parameters called on resume")

        monkeypatch.setattr(trainer_module, "init_parameters", refuse)
        train(small_corpus, cfg, tmp_path / "resumed",
              resume=tmp_path / "full" / "checkpoint_000006.json")
        assert (tmp_path / "resumed" / "checkpoint_final.json").read_bytes() == \
            (tmp_path / "full" / "checkpoint_final.json").read_bytes()

    def test_resume_rejects_config_mismatch(self, small_corpus, tmp_path):
        cfg = small_config(steps=12, checkpoint_interval=6)
        train(small_corpus, cfg, tmp_path / "base")
        other = small_config(steps=12, checkpoint_interval=6, lr=9e-4)
        ckpt = tmp_path / "base" / "checkpoint_000006.json"
        with pytest.raises(ContractViolationError, match="different configuration") as err:
            train(small_corpus, other, tmp_path / "bad", resume=ckpt)
        assert str(err.value).startswith(f"{ckpt}: ")

    def test_resume_rejects_a_step_beyond_the_configured_steps(self, small_corpus, tmp_path):
        cfg = small_config(steps=2)
        train(small_corpus, cfg, tmp_path / "base")
        ckpt = tmp_path / "base" / "checkpoint_final.json"
        payload = json.loads(ckpt.read_text())
        payload["step"] = 3
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ContractViolationError,
                           match="^checkpoint step 3 beyond configured steps 2$"):
            train(small_corpus, cfg, tmp_path / "resumed", resume=ckpt)

    def test_metrics_contain_required_fields(self, small_corpus, tmp_path):
        cfg = small_config()
        train(small_corpus, cfg, tmp_path / "fields")
        rec = json.loads(
            (tmp_path / "fields" / "metrics.jsonl").read_text().splitlines()[-1]
        )
        for key in ("loss_total", "mean_radius_part_image", "mean_radius_whole_image",
                    "mean_uncertainty_part_text", "radius_w1_image", "radius_w2_image",
                    "radius_mmd_image", "kappa", "tau_g", "tau_l", "tau_gl",
                    "c_img", "c_txt"):
            assert key in rec, key

    def test_metrics_losses_at_learned_temperatures(self, small_corpus, tmp_path):
        cfg = small_config()
        out = train(small_corpus, cfg, tmp_path / "temps")
        store, rec = out["store"], out["final_record"]
        temps = TemperatureSet(*(float(value_of(store[n])) for n in ("tau_g", "tau_l", "tau_gl")))
        assert temps != cfg.loss.temps   # the temperatures were trained
        tables = scaled_tables(store)
        idx = sample_batch(small_corpus, cfg.batch_size, [cfg.seed, _EVAL_STREAM_TAG])
        batch = Batch(np.stack([tables[group][idx.rows(src.level)]
                                for group, src in LAYOUT.items()]))
        report = total_loss(batch, replace(cfg.loss, temps=temps),
                            Manifold(float(value_of(store["kappa"]))))
        for name, value in report.to_floats().items():
            assert rec[f"loss_{name}"] == value, name

    def test_plain_materialized_batch_equals_scaled_table_rows(self, small_corpus):
        # export and the radii read scaled_tables; the batches gather and
        # scale per batch: over plain arrays the two agree bit for bit
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        store["c_txt"].value[...] = 0.3711   # the two scales differ
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 3])
        batch = materialize_batch({n: value_of(v) for n, v in store.items()}, idx)
        tables = scaled_tables(store)
        assert type(batch.groups) is np.ndarray
        for got, (group, src) in zip(batch.groups, LAYOUT.items()):
            assert got.tobytes() == tables[group][idx.rows(src.level)].tobytes(), group

    def test_checkpoint_roundtrip_bitwise(self, small_corpus, tmp_path):
        cfg = small_config(steps=4)
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg,
                   learning_rate(1, cfg))
        path = tmp_path / "ck.json"
        save_checkpoint(path, 1, store, opt, cfg)
        store2, opt2, step = restore(path, small_corpus, cfg)
        assert step == 1
        for name in store.names():
            assert np.array_equal(value_of(store[name]), value_of(store2[name]))
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])
        assert opt2.t == opt.t

    def test_checkpoint_roundtrip_special_values_bitwise(self, small_corpus, tmp_path):
        # every array keeps its exact bits through save and load: signed
        # zero, subnormals, infinities, NaNs with payloads, extremes; a store
        # is built, and a run restored, only from parameters and moments a
        # run can leave behind, which here hold the finite small specials
        # (the curvature and the temperatures hold values inside the ranges
        # training keeps, and no second moment is negative)
        cfg = small_config(steps=4)
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        nans = np.array([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000,
                         0x7FF8_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001]).view(np.float64)
        special = np.concatenate([[-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf,
                                   1e308, -1e308, 0.1], nans])
        for shift, views in enumerate(({n: v.value for n, v in store.items()}, opt.m, opt.v)):
            for name, view in views.items():
                view[...] = np.resize(np.roll(special, shift), view.shape)
        opt.t = 3
        path = tmp_path / "ck.json"
        save_checkpoint(path, 2, store, opt, cfg)
        payload = load_checkpoint(path)
        for name, var in store.items():
            data = payload["params"][name]["data"]
            assert _as_array(data, var.value.shape).tobytes() == var.value.tobytes(), name
            for field, moments in (("opt_m", opt.m), ("opt_v", opt.v)):
                data = payload[field][name]
                assert _as_array(data, var.value.shape).tobytes() == moments[name].tobytes()
        with pytest.raises(ContractViolationError, match="'table_scene_img' holds a non-finite"):
            store_from_payload(payload, path)
        small = special[np.isfinite(special) & (np.abs(special) < 1.0)]
        for name, var in store.items():
            if name != "kappa":
                var.value[...] = np.resize(small, var.value.shape)
        store["kappa"].value[...] = 1.0
        for name in TEMPERATURE_PARAMS.values():
            store[name].value[...] = TAU_FLOOR
        save_checkpoint(path, 2, store, opt, cfg)
        with pytest.raises(ContractViolationError,
                           match=r"opt_m\['table_scene_img'\] holds a non-finite entry$"):
            restore(path, small_corpus, cfg)
        for name in store.names():
            opt.m[name][...] = np.resize(small, opt.m[name].shape)
            opt.v[name][...] = np.resize(small[small >= 0.0], opt.v[name].shape)
        save_checkpoint(path, 2, store, opt, cfg)
        loaded = store_from_payload(load_checkpoint(path), path)
        store2, opt2, step = restore(path, small_corpus, cfg)
        assert step == 2
        for name in store.names():
            want = store[name].value.tobytes()
            assert loaded[name].value.tobytes() == want, name
            assert store2[name].value.tobytes() == want, name
            assert opt2.m[name].tobytes() == opt.m[name].tobytes(), name
            assert opt2.v[name].tobytes() == opt.v[name].tobytes(), name
        assert opt2.t == 3

    def test_save_checkpoint_memory_bound(self, tmp_path):
        # at the wide benchmark's shapes (512 scenes x 4 parts, table_dim 64)
        # one save stays below twice the raw bytes of parameters and moments
        rows = {"scene": 512, "part": 2048}
        rng = np.random.default_rng(3)
        tables = {group: rng.normal(size=(rows[src.level], 64))
                  for group, src in LAYOUT.items()}
        store = parameter_store(tables, 1.0, TemperatureSet())
        cfg = TrainConfig(table_dim=64)
        opt = AdamW(store, cfg)
        raw = 3 * store.flat.nbytes
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "wide.json", 0, store, opt, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * raw, (peak, raw)

    def _resume_poisoned(self, corpus, tmp_path, poison, expected, match=None,
                         checkpoint_interval=6):
        # resume from a poisoned checkpoint: the failing forward aborts the
        # run, keeps its error kind, and leaves a failure dump behind
        cfg = small_config(steps=12, checkpoint_interval=checkpoint_interval)
        train(corpus, cfg, tmp_path / "ok")
        ckpt_path = tmp_path / "ok" / f"checkpoint_{checkpoint_interval:06d}.json"
        payload = json.loads(ckpt_path.read_text())
        poison(payload["params"])
        poisoned = tmp_path / "poisoned.json"
        poisoned.write_text(json.dumps(payload))
        with pytest.raises(expected, match=match) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                train(corpus, cfg, tmp_path / "boom", resume=poisoned)
        dump = json.loads((tmp_path / "boom" / "failure_dump.json").read_text())
        assert "step" in dump and "scene_rows" in dump
        assert dump["kind"] == err.value.kind
        assert dump["message"] == str(err.value)
        return dump

    def test_nonfinite_loss_writes_diagnostic_dump(self, small_corpus, tmp_path):
        # every whole row lifted to radius 400, inside the float range the
        # checkpoint is held to, so a whole-image and whole-text pair's
        # inner product (about e^800 / 4) overflows the forward pass
        def poison(params):
            sqrt_k = np.sqrt(decode(params["kappa"]["data"])[0])
            for table, scale in (("table_scene_img", "c_img"), ("table_scene_txt", "c_txt")):
                data = decode(params[table]["data"]).reshape(8, 16)
                data[:, 0] = 400.0 / (sqrt_k * decode(params[scale]["data"])[0])
                params[table]["data"] = encode(data.ravel())

        dump = self._resume_poisoned(small_corpus, tmp_path, poison,
                                     NumericalConsistencyError)
        assert dump["kind"] == "numerical" and dump["batch"] == "train"

    def test_contract_error_writes_diagnostic_dump(self, small_corpus, tmp_path):
        # every part's text row at the origin, where its cone is undefined
        def poison(params):
            params["table_part_txt"]["data"] = encode(
                np.zeros_like(decode(params["table_part_txt"]["data"])))

        dump = self._resume_poisoned(small_corpus, tmp_path, poison, ContractViolationError,
                                     match="exterior angle undefined at the origin")
        assert dump["kind"] == "contract" and dump["batch"] == "train"
        assert dump["step"] == 6

    def test_error_in_eval_interval_writes_diagnostic_dump(self, small_corpus, tmp_path):
        # resumed at an eval step, the poisoned state fails in the metrics'
        # eval-batch forward before any training step: the dump names the
        # eval batch's rows
        def poison(params):
            params["table_part_txt"]["data"] = encode(
                np.zeros_like(decode(params["table_part_txt"]["data"])))

        dump = self._resume_poisoned(small_corpus, tmp_path, poison, ContractViolationError,
                                     match="exterior angle undefined at the origin",
                                     checkpoint_interval=4)
        cfg = small_config()
        eval_idx = sample_batch(small_corpus, cfg.batch_size, [cfg.seed, _EVAL_STREAM_TAG])
        assert dump["step"] == 4 and dump["batch"] == "eval"
        assert dump["scene_rows"] == eval_idx.scene_rows.tolist()
        assert dump["part_rows"] == eval_idx.part_rows.tolist()

    def test_coincident_pair_reached_by_training_completes(self, tmp_path):
        # the contrastive and inter-entailment terms pull a whole pair
        # together until it coincides (update 289 of this schedule); the
        # pair then takes phi = 0 instead of aborting the run
        summary = train(generate(), TrainConfig(seed=7, steps=300), tmp_path)
        assert summary["final_record"]["step"] == 300
        assert math.isfinite(summary["final_record"]["loss_total"])

    @pytest.mark.skipif(not (getattr(os, "confstr", None)
                             and os.confstr_names.get("CS_GNU_LIBC_VERSION")),
                        reason="the fault counts are glibc's")
    def test_wide_step_takes_no_page_faults(self, tmp_path):
        # a fresh process that has freed no large block: glibc maps the wide
        # step's MiB-sized transients afresh (about 2900 minor faults in
        # step 0) until freeing one raises its dynamic mmap threshold; from
        # then on the steps reuse heap pages, with no thresholds set by the
        # package
        script = f"""
import json, resource
from hypalign import synthdata, trainer
faults, step = [], trainer.train_step
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
trainer.train_step = counted
corpus = synthdata.generate(num_scenes=512, parts_per_scene=4, latent_dim=64, seed=7)
trainer.train(corpus, trainer.TrainConfig(steps=8, table_dim=64, batch_size=256,
                                          eval_interval=1000), {str(tmp_path)!r})
print(json.dumps(faults))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(trainer_module.__file__)),
             os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        faults = json.loads(done.stdout)
        later = sorted(faults[1:])        # step 0 may still grow the heap
        assert later[len(later) // 2] < 64, faults

    def test_config_hash_sensitivity(self):
        assert config_hash(small_config()) != config_hash(small_config(lr=1e-3))
        assert config_hash(small_config()) != config_hash(
            small_config(loss=LossConfig(lambda_cal=0.0))
        )
        assert config_hash(small_config()) == config_hash(small_config())

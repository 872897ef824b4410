"""Trainer checks: initialization values, schedule shape, decay exclusion,
clamps, determinism, and checkpoint resume."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hypalign.autodiff import value_of
from hypalign.errors import ContractViolationError
from hypalign.evalmetrics import scaled_tables
from hypalign.losses import Batch, LossConfig, TemperatureSet, total_loss
from hypalign.manifold import Manifold
from hypalign.synthdata import generate, sample_batch
from hypalign.trainer import (
    _EVAL_STREAM_TAG,
    DECAY_EXCLUDE,
    AdamW,
    TrainConfig,
    config_hash,
    init_parameters,
    learning_rate,
    load_checkpoint,
    materialize_batch,
    restore,
    save_checkpoint,
    store_from_payload,
    train,
    train_step,
)
from hypalign.uncertainty import LN2, uncertainty
import hypalign.autodiff as ad


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

    def test_zero_lr_leaves_parameters_unchanged(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        before = store.snapshot()
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg, lr=0.0)
        after = store.snapshot()
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

    def test_clamp_projection(self, small_corpus):
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        store["kappa"].value = np.asarray(50.0)
        store["tau_g"].value = np.asarray(1e-5)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg, lr=1e-4)
        assert float(value_of(store["kappa"])) == 10.0
        assert float(value_of(store["tau_g"])) >= 0.01

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
        before = store.snapshot()
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
        with pytest.raises(ContractViolationError):
            # NaN entries are caught by the batch contract before the loss
            materialize_batch(store, idx)


class TestTrainLoop:
    def test_zero_steps_checkpoint_equals_init(self, small_corpus, tmp_path):
        cfg = small_config(steps=0)
        out = train(small_corpus, cfg, tmp_path / "run0")
        payload = load_checkpoint(out["checkpoint"])
        assert payload["step"] == 0
        fresh = init_parameters(small_corpus, cfg)
        loaded = store_from_payload(payload)
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

    def test_resume_rejects_config_mismatch(self, small_corpus, tmp_path):
        cfg = small_config(steps=12, checkpoint_interval=6)
        train(small_corpus, cfg, tmp_path / "base")
        other = small_config(steps=12, checkpoint_interval=6, lr=9e-4)
        with pytest.raises(ContractViolationError):
            train(small_corpus, other, tmp_path / "bad",
                  resume=tmp_path / "base" / "checkpoint_000006.json")

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
        batch = Batch(whole_image=tables["whole_image"][idx.scene_rows],
                      whole_text=tables["whole_text"][idx.scene_rows],
                      part_image=tables["part_image"][idx.part_rows],
                      part_text=tables["part_text"][idx.part_rows])
        report = total_loss(batch, replace(cfg.loss, temps=temps),
                            Manifold(float(value_of(store["kappa"]))))
        for name, value in report.to_floats().items():
            assert rec[f"loss_{name}"] == value, name

    def test_plain_materialized_batch_equals_scaled_table_rows(self, small_corpus):
        # the eval batch reads scaled_tables rows; training gathers and scales
        # per batch: over plain arrays the two agree bit for bit
        cfg = small_config()
        store = init_parameters(small_corpus, cfg)
        store["c_txt"].value = np.asarray(0.3711)   # the two scales differ
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 3])
        batch = materialize_batch({n: value_of(v) for n, v in store.items()}, idx)
        tables = scaled_tables(store)
        for group, rows in (("whole_image", idx.scene_rows), ("whole_text", idx.scene_rows),
                            ("part_image", idx.part_rows), ("part_text", idx.part_rows)):
            got = getattr(batch, group)
            assert type(got) is np.ndarray, group
            assert got.tobytes() == tables[group][rows].tobytes(), group

    def test_checkpoint_roundtrip_bitwise(self, small_corpus, tmp_path):
        cfg = small_config(steps=4)
        store = init_parameters(small_corpus, cfg)
        opt = AdamW(store, cfg)
        idx = sample_batch(small_corpus, cfg.batch_size, [5, 0])
        train_step(store, opt, materialize_batch(store, idx), cfg,
                   learning_rate(1, cfg))
        path = tmp_path / "ck.json"
        save_checkpoint(path, 1, store, opt, cfg)
        payload = load_checkpoint(path)
        store2 = init_parameters(small_corpus, cfg)
        opt2 = AdamW(store2, cfg)
        assert restore(payload, store2, opt2, cfg) == 1
        for name in store.names():
            assert np.array_equal(value_of(store[name]), value_of(store2[name]))
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])
        assert opt2.t == opt.t

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
        # one table row at 1e200 overflows the forward pass
        from hypalign.errors import NumericalConsistencyError

        def poison(params):
            params["table_scene_img"]["data"][0] = 1e200

        dump = self._resume_poisoned(small_corpus, tmp_path, poison,
                                     NumericalConsistencyError)
        assert dump["kind"] == "numerical" and dump["batch"] == "train"

    def test_contract_error_writes_diagnostic_dump(self, small_corpus, tmp_path):
        # every part's text row at the origin, where its cone is undefined
        def poison(params):
            params["table_part_txt"]["data"] = [0.0] * len(params["table_part_txt"]["data"])

        dump = self._resume_poisoned(small_corpus, tmp_path, poison, ContractViolationError,
                                     match="exterior angle undefined at the origin")
        assert dump["kind"] == "contract" and dump["batch"] == "train"
        assert dump["step"] == 6

    def test_error_in_eval_interval_writes_diagnostic_dump(self, small_corpus, tmp_path):
        # resumed at an eval step, the poisoned state fails in the metrics'
        # eval-batch forward before any training step: the dump names the
        # eval batch's rows
        def poison(params):
            params["table_part_txt"]["data"] = [0.0] * len(params["table_part_txt"]["data"])

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

    def test_config_hash_sensitivity(self):
        assert config_hash(small_config()) != config_hash(small_config(lr=1e-3))
        assert config_hash(small_config()) != config_hash(
            small_config(loss=LossConfig(lambda_cal=0.0))
        )
        assert config_hash(small_config()) == config_hash(small_config())

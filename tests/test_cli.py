"""CLI contract: subcommand behavior, determinism, config precedence, exit
codes, and machine-parsable errors."""

import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from hypalign.cli import CONFIG_SCHEMA, build_train_config, main, parse_config_file
from hypalign.synthdata import GeneratorParams, generate, load, save
from hypalign.trainer import TrainConfig


def _resolved_config(err: str) -> dict:
    line, = [ln for ln in err.splitlines() if ln.startswith("resolved-config ")]
    return json.loads(line.partition(" ")[2])


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.txt"
    assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "7",
                 "--latent-dim", "16", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--scenes", "8", "--parts", "2", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_env_seed_means_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNCHA_SEED", "")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--scenes", "8", "--parts", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_flags_write_the_default_corpus(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("UNCHA_SEED", raising=False)
        cli_path, lib_path = tmp_path / "cli.txt", tmp_path / "lib.txt"
        assert main(["generate", "--out", str(cli_path)]) == 0
        save(generate(), lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()
        # the resolved-config line carries the corpus header's field names
        assert _resolved_config(capsys.readouterr().err) == {
            "command": "generate", **asdict(GeneratorParams()), "out": str(cli_path)}

    def test_every_flag_reaches_the_generator(self, tmp_path):
        settings = {"num_scenes": 9, "parts_per_scene": 3, "latent_dim": 12,
                    "noise_scale": 0.07, "spread": 0.8, "min_separation": 0.4,
                    "seed": 11}
        assert set(settings) == {f.name for f in fields(GeneratorParams)}
        assert all(v != getattr(GeneratorParams, k) for k, v in settings.items())
        cli_path, lib_path = tmp_path / "cli.txt", tmp_path / "lib.txt"
        assert main(["generate", "--scenes", "9", "--parts", "3", "--latent-dim", "12",
                     "--noise-scale", "0.07", "--spread", "0.8",
                     "--min-separation", "0.4", "--seed", "11",
                     "--out", str(cli_path)]) == 0
        save(generate(**settings), lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()
        assert load(cli_path).params == GeneratorParams(**settings)

    def test_infeasible_parameters_exit_1(self, tmp_path, capsys):
        code = main(["generate", "--scenes", "64", "--parts", "1",
                     "--min-separation", "1.4",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error kind=generation" in err


class TestArgumentErrors:
    def test_unknown_flag_exit_1(self, capsys):
        assert main(["generate", "--bogus", "1", "--out", "x"]) == 1
        assert "error kind=contract" in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self):
        assert main(["frobnicate"]) == 1


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\nsteps = 10\nlr=1e-3\ninclude_positive = true\n"
            "lambda_cal = 0.0  # trailing comment\n"
        )
        values = parse_config_file(path)
        assert values == {"steps": 10, "lr": 1e-3, "include_positive": True,
                          "lambda_cal": 0.0}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nonsense = 1\n")
        from hypalign.errors import ContractViolationError
        with pytest.raises(ContractViolationError):
            parse_config_file(path)

    def test_every_key_lands_in_its_field(self, tmp_path):
        # each key and where it lands in asdict(cfg)
        paths = {
            **{k: (k,) for k in (
                "steps", "batch_size", "lr", "warmup_steps", "weight_decay",
                "beta1", "beta2", "adam_eps", "eval_interval",
                "checkpoint_interval", "seed", "table_dim", "init_scale")},
            "tau_g": ("loss", "temps", "tau_global"),
            "tau_l": ("loss", "temps", "tau_local"),
            "tau_gl": ("loss", "temps", "tau_global_local"),
            **{k: ("loss", "cone", k) for k in ("aperture_k", "eta_inter", "eta_intra")},
            **{k: ("loss", k) for k in (
                "alpha", "lambda_intra", "lambda_cal", "lambda_ent", "entropy_sign",
                "include_positive", "uncertainty_from_radius")},
        }
        assert set(paths) == set(CONFIG_SCHEMA)

        def lookup(d, path):
            for name in path:
                d = d[name]
            return d

        defaults = asdict(TrainConfig())
        wanted = {}
        for key, path in paths.items():
            default = lookup(defaults, path)
            if isinstance(default, bool):
                wanted[key] = not default
            elif isinstance(default, int):
                wanted[key] = default + 1
            else:
                wanted[key] = -default if key == "entropy_sign" else default * 0.5
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("".join(
            f"{k} = {str(v).lower() if isinstance(v, bool) else repr(v)}\n"
            for k, v in wanted.items()))
        resolved = asdict(build_train_config(parse_config_file(cfg_path), {}))
        for key, path in paths.items():
            got = lookup(resolved, path)
            assert got == wanted[key] and type(got) is type(wanted[key]), key

    def test_train_flags_land_in_their_keys(self, corpus_path, tmp_path, capsys):
        assert main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "r"),
                     "--steps", "0", "--batch-size", "4", "--lr", "0.002",
                     "--warmup", "3", "--seed", "9"]) == 0
        resolved = _resolved_config(capsys.readouterr().err)
        assert {k: resolved[k] for k in ("steps", "batch_size", "lr", "warmup_steps", "seed")} \
            == {"steps": 0, "batch_size": 4, "lr": 0.002, "warmup_steps": 3, "seed": 9}

    def test_flags_override_file(self):
        cfg = build_train_config({"steps": 10, "lr": 1e-3}, {"steps": 20})
        assert cfg.steps == 20
        assert cfg.lr == 1e-3

    def test_nested_loss_keys(self):
        cfg = build_train_config(
            {"tau_gl": 0.05, "eta_intra": 1.5, "lambda_cal": 2.0,
             "entropy_sign": -1.0}, {},
        )
        assert cfg.loss.temps.tau_global_local == 0.05
        assert cfg.loss.cone.eta_intra == 1.5
        assert cfg.loss.lambda_cal == 2.0
        assert cfg.loss.entropy_sign == -1.0

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("UNCHA_SEED", "123")
        assert build_train_config({}, {}).seed == 123
        # explicit settings win over the environment
        assert build_train_config({"seed": 5}, {}).seed == 5
        assert build_train_config({}, {"seed": 9}).seed == 9
        # an empty value counts as unset, as it does for generate and check-grads
        monkeypatch.setenv("UNCHA_SEED", "")
        assert build_train_config({}, {}).seed == 7
        monkeypatch.setenv("UNCHA_SEED", "not-int")
        from hypalign.errors import ContractViolationError
        with pytest.raises(ContractViolationError):
            build_train_config({}, {})


class TestTrainEvalExport:
    def test_steps_zero_checkpoint_equals_init(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--steps", "0", "--batch-size", "4"]) == 0
        from hypalign.trainer import (init_parameters, load_checkpoint,
                                      store_from_payload)
        from hypalign.autodiff import value_of
        payload = load_checkpoint(out / "checkpoint_final.json")
        fresh = init_parameters(load(corpus_path),
                                TrainConfig(steps=0, batch_size=4, seed=7))
        loaded = store_from_payload(payload)
        for name in fresh.names():
            assert np.array_equal(value_of(fresh[name]), value_of(loaded[name]))

    def test_train_seed_from_env(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("UNCHA_SEED", "7")
        out_env = tmp_path / "env"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out_env),
                     "--steps", "4", "--batch-size", "4"]) == 0
        monkeypatch.delenv("UNCHA_SEED")
        out_flag = tmp_path / "flag"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out_flag),
                     "--steps", "4", "--batch-size", "4", "--seed", "7"]) == 0
        assert (out_env / "metrics.jsonl").read_bytes() == \
            (out_flag / "metrics.jsonl").read_bytes()

    def test_eval_and_export(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--steps", "6", "--batch-size", "4", "--seed", "7"]) == 0
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--corpus", str(corpus_path),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert "classification" in report and "retrieval" in report
        assert report["checkpoint_step"] == 6

        csv_path = tmp_path / "emb.csv"
        assert main(["export", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--corpus", str(corpus_path), "--out", str(csv_path)]) == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:5] == ["id", "view", "level", "radius", "uncertainty"]
        assert len(header) == 5 + 16
        # 8 scenes + 16 parts, two views each
        assert len(rows) - 1 == (8 + 16) * 2
        levels = {r[2] for r in rows[1:]}
        views = {r[1] for r in rows[1:]}
        assert levels == {"scene", "part"} and views == {"image", "text"}

    def test_eval_and_export_idempotent_bytes(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--corpus", str(corpus_path), "--out", str(out),
              "--steps", "4", "--batch-size", "4", "--seed", "7"])
        ckpt = str(out / "checkpoint_final.json")
        paths = [tmp_path / f"{kind}{i}" for kind in ("eval", "csv")
                 for i in (1, 2)]
        for p in paths[:2]:
            assert main(["eval", "--checkpoint", ckpt,
                         "--corpus", str(corpus_path), "--out", str(p)]) == 0
        for p in paths[2:]:
            assert main(["export", "--checkpoint", ckpt,
                         "--corpus", str(corpus_path), "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[2].read_bytes() == paths[3].read_bytes()

    def test_eval_with_taxonomy_file(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--corpus", str(corpus_path), "--out", str(out),
              "--steps", "2", "--batch-size", "4", "--seed", "7"])
        corpus = load(corpus_path)
        parent = {"root": None}
        for s in corpus.scenes:
            parent[s.id] = "root"
        for p in corpus.parts:
            parent[p.id] = p.parent
        tax_path = tmp_path / "tax.json"
        tax_path.write_text(json.dumps({"parent": parent}))
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--corpus", str(corpus_path), "--taxonomy", str(tax_path),
                     "--out", str(report_path)]) == 0

    def test_corpus_header_without_seed_exit_1(self, corpus_path, tmp_path, capsys):
        header, *records = corpus_path.read_text().splitlines()
        header = json.loads(header)
        del header["seed"]
        corpus_path.write_text("\n".join([json.dumps(header), *records]) + "\n")
        code = main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "o")])
        assert code == 1
        error_line = capsys.readouterr().err.splitlines()[-1]
        assert error_line.startswith("error kind=contract") and "'seed'" in error_line

    def test_missing_corpus_exit_1(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error kind=contract" in capsys.readouterr().err


class TestCheckGrads:
    def test_passes_with_exit_zero(self, capsys):
        assert main(["check-grads", "--seed", "1", "--max-coords", "4"]) == 0
        out = capsys.readouterr().out
        assert "check-grads passed" in out
        assert "total_loss" in out

    def test_tight_tolerance_fails_with_exit_3(self, capsys):
        code = main(["check-grads", "--seed", "1", "--max-coords", "2",
                     "--tolerance", "1e-13"])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("max_coords", ["0", "-1"])
    def test_max_coords_below_one_exit_1(self, max_coords, capsys):
        code = main(["check-grads", "--seed", "1", "--max-coords", max_coords])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error_line = captured.err.splitlines()[-1]
        assert error_line.startswith("error kind=contract") and "max_coords" in error_line

    @pytest.mark.parametrize("tolerance", ["0", "-1e-4", "nan", "inf"])
    def test_tolerance_not_positive_and_finite_exit_1(self, tolerance, capsys):
        code = main(["check-grads", "--seed", "1", "--max-coords", "2",
                     "--tolerance", tolerance])
        assert code == 1
        error_line = capsys.readouterr().err.splitlines()[-1]
        assert error_line.startswith("error kind=contract") and "tolerance" in error_line

    def test_step_out_of_range_exit_1(self, capsys):
        code = main(["check-grads", "--seed", "1", "--max-coords", "2", "--step", "1e-2"])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error kind=contract")

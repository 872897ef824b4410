"""CLI contract: subcommand behavior, determinism, config precedence, exit
codes, and machine-parsable errors."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import hypalign
from hypalign.autodiff import value_of
from hypalign.cli import CONFIG_SCHEMA, build_train_config, main, parse_config_file
from hypalign.evalmetrics import scaled_tables
from hypalign.losses import LAYOUT
from hypalign.manifold import Manifold, hyperbolic_radius
from hypalign.synthdata import GeneratorParams, generate, load, save
from hypalign.trainer import TrainConfig, load_checkpoint, store_from_payload
from hypalign.uncertainty import uncertainty

import _oracles as orc
from _checkpoint_data import as_format_1, decode, encode, reencode_bytes, write_seeded_run


def _resolved_config(err: str) -> dict:
    line, = [ln for ln in err.splitlines() if ln.startswith("resolved-config ")]
    return json.loads(line.partition(" ")[2])


def _cli_process(*args) -> subprocess.CompletedProcess:
    """Run ``hypalign.cli`` in a separate process: numpy's floating-point
    warnings go to the real stderr, which only a separate process shows as
    a user sees it."""
    src = os.path.dirname(os.path.dirname(hypalign.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "hypalign.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


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
        header, record = (json.loads(line) for line in a.read_text().splitlines()[:2])
        assert header["format"] == "hypalign-corpus-v2"
        assert decode(record["latent"]).tobytes() == generate(
            num_scenes=8, parts_per_scene=2, seed=3).views["scene", "latent"][0].tobytes()

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


class TestValuesOutsideTheirDomain:
    """A configuration, generator or seed value outside its domain exits 1
    with one ``error kind=contract`` line naming the field (a value from a
    ``--config`` file: its file, line and key), before any output is
    written."""

    def _refused(self, capsys, argv, field):
        code = main(argv)
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error kind=contract message=")
        message = json.loads(errors[0].partition("message=")[2])
        assert message.split()[0] == field
        return message

    CONFIG_CASES = [
        ("table_dim", "0", "0 outside its domain [1, inf)"),
        ("table_dim", "-3", "-3 outside its domain [1, inf)"),
        ("lr", "-1", "-1.0 outside its domain (0, inf)"),
        ("beta1", "2", "2.0 outside its domain [0, 1)"),
        ("warmup_steps", "-5", "-5 outside its domain [0, inf)"),
        ("alpha", "nan", "nan outside its domain [0, inf)"),
        ("lambda_cal", "nan", "nan outside its domain [0, inf)"),
        ("eta_inter", "nan", "nan outside its domain (0, inf)"),
        ("tau_gl", "nan", "nan outside its domain (-inf, inf)"),
        ("tau_gl", "0.001", "below the 0.01 floor"),
        ("entropy_sign", "0.5", "must be +1 or -1"),
        ("lr", "nan", "nan outside its domain (0, inf)"),
        ("beta2", "1", "1.0 outside its domain [0, 1)"),
        ("adam_eps", "0", "0.0 outside its domain (0, inf)"),
        ("weight_decay", "nan", "nan outside its domain [0, inf)"),
    ]

    # each case is named by its key, its value and the field the key sets
    @pytest.mark.parametrize("key,value,detail", CONFIG_CASES, ids=[
        f"{key}-{value}-{'tau_global_local' if key == 'tau_gl' else key}"
        for key, value, _ in CONFIG_CASES])
    def test_train_config_value(self, corpus_path, tmp_path, capsys, key, value, detail):
        # a value from the file is named by its file, line and key as written
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
        cfg.write_text(f"batch_size = 4\nsteps = 3\n\n{key} = {value}\n")
        message = self._refused(capsys, ["train", "--corpus", str(corpus_path), "--out",
                                         str(out), "--config", str(cfg)], f"{cfg}:4:")
        assert message == f"{cfg}:4: {key} {detail}"
        assert not out.exists()

    def test_beta2_below_beta1_squared(self, tmp_path, capsys):
        # at beta2 = 0 a row out of the batch has v = 0 and m != 0, so this
        # 3-step run moved a part-table entry by lr * m_hat / adam_eps at
        # step 1 and read a nan loss at step 2; the config is refused instead
        corpus, cfg, out = tmp_path / "corpus.txt", tmp_path / "cfg.txt", tmp_path / "run"
        assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "3",
                     "--out", str(corpus)]) == 0
        cfg.write_text("batch_size = 4\nbeta2 = 0\n")
        message = self._refused(capsys, ["train", "--corpus", str(corpus), "--out", str(out),
                                         "--steps", "3", "--seed", "3", "--config", str(cfg)],
                                f"{cfg}:2:")
        assert message == f"{cfg}:2: beta2 0.0 below beta1**2 = 0.81"
        assert not out.exists()

    def test_flag_value_keeps_the_field_message(self, corpus_path, tmp_path, capsys):
        # the file's own value is valid, and the flag that overrides it is not
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
        cfg.write_text("lr = 0.001\nbatch_size = 4\nsteps = 3\n")
        message = self._refused(capsys, ["train", "--corpus", str(corpus_path), "--out",
                                         str(out), "--config", str(cfg), "--lr", "-1"], "lr")
        assert message == "lr -1.0 outside its domain (0, inf)"

    def test_flag_overrides_a_bad_file_value(self, corpus_path, tmp_path):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
        cfg.write_text("lr = -1\nbatch_size = 4\nsteps = 3\n")
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--config", str(cfg), "--lr", "0.001"]) == 0

    @pytest.mark.parametrize("flag,value,field", [
        ("--seed", "-1", "seed"), ("--noise-scale", "nan", "noise_scale"),
        ("--spread", "inf", "spread"), ("--min-separation", "nan", "min_separation"),
    ])
    def test_generator_setting(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "corpus.txt"
        self._refused(capsys, ["generate", flag, value, "--out", str(out)], field)
        assert not out.exists()

    def test_negative_train_seed(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        self._refused(capsys, ["train", "--corpus", str(corpus_path), "--out", str(out),
                               "--seed", "-2"], "seed")
        assert not out.exists()

    def test_negative_check_grads_seed(self, capsys):
        self._refused(capsys, ["check-grads", "--seed", "-3"], "seed")

    def test_negative_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("UNCHA_SEED", "-4")
        self._refused(capsys, ["check-grads"], "seed")


class TestOutOfMemory:
    def test_memory_error_is_one_contract_line(self, corpus_path, tmp_path, capsys,
                                               monkeypatch):
        # numpy's failed allocation is a MemoryError; the parameter tables'
        # allocation site raises one here, so nothing is allocated
        def refuse(corpus, cfg):
            raise MemoryError("Unable to allocate 119. GiB for an array with shape "
                              "(16, 1000000000) and data type float64")

        monkeypatch.setattr(hypalign.trainer, "init_parameters", refuse)
        code = main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "run"),
                     "--steps", "3", "--batch-size", "4"])
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error ")]
        assert code == 1 and "Traceback" not in err
        assert errors == ['error kind=contract message="Unable to allocate 119. GiB for an '
                          'array with shape (16, 1000000000) and data type float64"']


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\nsteps = 10\nlr=1e-3\ninclude_positive = true\n"
            "lambda_cal = 0.0  # trailing comment\n"
        )
        values, where = parse_config_file(path)
        assert values == {"steps": 10, "lr": 1e-3, "include_positive": True,
                          "lambda_cal": 0.0}
        assert where == {"steps": f"{path}:2", "lr": f"{path}:3",
                         "include_positive": f"{path}:4", "lambda_cal": f"{path}:5"}

    def test_byte_not_text_rejected(self, tmp_path, capsys, corpus_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"lr = 0.001\n# caf\xff\n")
        assert main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "run"),
                     "--config", str(path)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error ")]
        assert len(errors) == 1 and errors[0].startswith(
            f'error kind=contract message="{path}: config file is not text:')

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
        values, _ = parse_config_file(cfg_path)
        resolved = asdict(build_train_config(values, {}))
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
        ckpt = out / "checkpoint_final.json"
        fresh = init_parameters(load(corpus_path),
                                TrainConfig(steps=0, batch_size=4, seed=7))
        loaded = store_from_payload(load_checkpoint(ckpt), ckpt)
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

    def test_eval_of_too_few_parts_reports_degenerate_correlations(self, tmp_path):
        # two parts carry no correlation: eval writes every other section and
        # marks the correlations degenerate, as for a zero-variance input
        corpus, out = tmp_path / "corpus.txt", tmp_path / "run"
        assert main(["generate", "--scenes", "2", "--parts", "1", "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(out),
                     "--steps", "3", "--batch-size", "2"]) == 0
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--corpus", str(corpus), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert {"classification", "retrieval", "radius_distributions"} <= set(report)
        assert report["uncertainty_correlation"] == dict.fromkeys(
            ("image", "text"),
            {"pearson_similarity": 0.0, "spearman_ground_truth": 0.0, "degenerate": True})

    def test_eval_of_a_huge_representativeness_writes_only_the_config(self, tmp_path):
        # the ground truth's spread overflows float's range in the degeneracy
        # test; the report is still written and stderr holds no numpy warning
        corpus, out = tmp_path / "corpus.txt", tmp_path / "run"
        assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "5",
                     "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(out),
                     "--steps", "3", "--batch-size", "4"]) == 0
        lines = corpus.read_text().splitlines()
        record = json.loads(lines[-1])
        record["representativeness"] = 1e308
        lines[-1] = json.dumps(record)
        corpus.write_text("\n".join(lines) + "\n")
        done = _cli_process("eval", "--checkpoint", out / "checkpoint_final.json",
                            "--corpus", corpus, "--out", tmp_path / "eval.json")
        assert done.returncode == 0, done.stderr
        line, = done.stderr.splitlines()
        assert line.startswith("resolved-config ")
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["checkpoint_step"] == 3

    @pytest.mark.parametrize("renamed", ["s000", "s003.p1"], ids=["scene", "part"])
    def test_a_concept_named_root_keeps_the_report(self, corpus_path, tmp_path, renamed):
        # eval's implicit taxonomy has a root of its own, whatever the ids
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--steps", "3", "--batch-size", "4", "--seed", "7"]) == 0
        records = [json.loads(line) for line in corpus_path.read_text().splitlines()]
        for rec in records[1:]:
            for field in ("id", "parent"):
                if rec.get(field) == renamed:
                    rec[field] = "root"
        rooted = tmp_path / "rooted.txt"
        rooted.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        reports = []
        for corpus in (corpus_path, rooted):
            reports.append(tmp_path / f"eval_{corpus.stem}.json")
            assert main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                         "--corpus", str(corpus), "--out", str(reports[-1])]) == 0
        assert '"id": "root"' in rooted.read_text()
        assert reports[0].read_bytes() == reports[1].read_bytes()

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
        for sid in corpus.ids["scene"]:
            parent[sid] = "root"
        for pid, row in zip(corpus.ids["part"], corpus.parent_rows):
            parent[pid] = corpus.ids["scene"][row]
        tax_path = tmp_path / "tax.json"
        tax_path.write_text(json.dumps({"parent": parent}))
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--corpus", str(corpus_path), "--taxonomy", str(tax_path),
                     "--out", str(report_path)]) == 0

    @pytest.mark.parametrize("ids", [
        None,                                   # the generated ids
        ["a,b", 'q"uote', "cr\rlf", "line\nbreak", '"', ",", "", " sp ", "t\tab", "é"],
    ])
    def test_export_equals_csv_writer(self, corpus_path, tmp_path, ids):
        corpus = load(corpus_path)
        if ids is not None:
            # each id verbatim once, then variants that keep ids unique
            names = iter(ids + [f"{name}/{k}" for k, name in enumerate(ids * 2)])
            # a part's parent is its scene's row, so it follows the scene's name
            corpus = replace(corpus, ids={level: [next(names) for _ in level_ids]
                                          for level, level_ids in corpus.ids.items()})
            save(corpus, corpus_path)
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--steps", "3", "--batch-size", "4", "--seed", "7"]) == 0
        ckpt = out / "checkpoint_final.json"
        csv_path = tmp_path / "emb.csv"
        assert main(["export", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(csv_path)]) == 0

        store = store_from_payload(load_checkpoint(ckpt), ckpt)
        m = Manifold(float(value_of(store["kappa"])))
        tables = scaled_tables(store)
        rows = [["id", "view", "level", "radius", "uncertainty"]
                + [f"v{i}" for i in range(16)]]
        for group, src in LAYOUT.items():
            embs = tables[group]
            radii, uncs = hyperbolic_radius(embs, m), uncertainty(embs)
            rows += [[cid, src.modality, src.level, radii[r], uncs[r], *embs[r]]
                     for r, cid in enumerate(corpus.ids[src.level])]
        want = tmp_path / "want.csv"
        orc.export_csv_reference(want, rows)
        assert csv_path.read_bytes() == want.read_bytes()

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


class TestTrainingBlowsUp:
    def test_nonfinite_table_read_by_the_next_batch(self, tmp_path, capsys):
        # a huge learning rate drives a table to inf in the first update; the
        # next batch reads it from the store inside the guarded step
        corpus, out = tmp_path / "corpus.txt", tmp_path / "run"
        assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "5",
                     "--out", str(corpus)]) == 0
        capsys.readouterr()
        code = main(["train", "--corpus", str(corpus), "--out", str(out), "--lr", "1e300",
                     "--warmup", "0", "--steps", "5", "--batch-size", "4"])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 2 and len(errors) == 1
        assert errors[0].startswith("error kind=numerical message=")
        dump = json.loads((out / "failure_dump.json").read_text())
        assert dump["kind"] == "numerical" and dump["batch"] == "train"
        assert dump["step"] == 1 and "read from the store" in dump["message"]


    @pytest.mark.parametrize("scenes,config,flags", [
        ("8", "", ["--lr", "1e300", "--warmup", "0", "--steps", "5", "--batch-size", "4"]),
        # without decay the step-42 state overflows the cone angle's forward
        # and, on the checking re-sweep, its VJP
        ("16", "weight_decay = 0\nwarmup_steps = 0\n",
         ["--lr", "2", "--batch-size", "8", "--steps", "400"]),
    ], ids=["lr-1e300", "lr-2-no-decay"])
    def test_stderr_holds_only_the_config_and_the_error(self, tmp_path, scenes, config, flags):
        corpus, cfg = tmp_path / "corpus.txt", tmp_path / "train.cfg"
        assert main(["generate", "--scenes", scenes, "--parts", "2", "--seed", "5",
                     "--out", str(corpus)]) == 0
        cfg.write_text(config)
        done = _cli_process("train", "--corpus", corpus, "--out", tmp_path / "run",
                            "--config", cfg, *flags)
        lines = done.stderr.splitlines()
        assert done.returncode == 2, done.stderr
        assert len(lines) == 2, done.stderr
        assert lines[0].startswith("resolved-config ")
        assert lines[1].startswith("error kind=numerical message="), done.stderr


class TestMalformedInputFiles:
    """A malformed corpus, checkpoint or taxonomy file exits 1 with one
    ``error kind=contract`` line that names the file, not a traceback."""

    @pytest.fixture()
    def run(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(out),
                     "--steps", "2", "--batch-size", "4", "--seed", "7"]) == 0
        return {"corpus": corpus_path, "checkpoint": out / "checkpoint_final.json",
                "report": tmp_path / "eval.json"}

    def _eval(self, run, capsys, *extra):
        code = main(["eval", "--checkpoint", str(run["checkpoint"]),
                     "--corpus", str(run["corpus"]), "--out", str(run["report"]), *extra])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error kind=contract message=")
        return json.loads(errors[0].partition("message=")[2])

    def test_truncated_corpus(self, run, capsys):
        text = run["corpus"].read_text()
        run["corpus"].write_text(text[:len(text) // 2])
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['corpus']}:") and "not JSON" in message

    def test_corpus_record_without_kind(self, run, capsys):
        lines = run["corpus"].read_text().splitlines()
        record = json.loads(lines[5])
        del record["kind"]
        lines[5] = json.dumps(record)
        run["corpus"].write_text("\n".join(lines) + "\n")
        assert self._eval(run, capsys).startswith(f"{run['corpus']}:6: ")

    def _refused(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error ")]
        assert code == 1 and "Traceback" not in err
        assert len(errors) == 1 and errors[0].startswith("error kind=contract message=")
        return json.loads(errors[0].partition("message=")[2])

    @staticmethod
    def _argv(run, tmp_path, command):
        if command == "train":
            return ["train", "--corpus", str(run["corpus"]), "--out", str(tmp_path / "r2"),
                    "--steps", "2", "--batch-size", "4", "--seed", "7"]
        return [command, "--checkpoint", str(run["checkpoint"]),
                "--corpus", str(run["corpus"]), "--out", str(tmp_path / "out")]

    def _edit_corpus(self, run, edit):
        records = [json.loads(line) for line in run["corpus"].read_text().splitlines()]
        edit(records)
        run["corpus"].write_text("".join(json.dumps(rec) + "\n" for rec in records))

    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_corpus_byte_not_text(self, run, capsys, tmp_path, command):
        data = run["corpus"].read_bytes()
        run["corpus"].write_bytes(data[:50] + b"\xff" + data[51:])
        message = self._refused(self._argv(run, tmp_path, command), capsys)
        assert message.startswith(f"{run['corpus']}: corpus file is not text:")

    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_corpus_v1_refused(self, run, capsys, tmp_path, command):
        def as_v1(records):
            records[0]["format"] = "hypalign-corpus-v1"
            for rec in records[1:]:
                for view in ("latent", "image_view", "text_view"):
                    rec[view] = decode(rec[view]).tolist()
        self._edit_corpus(run, as_v1)
        message = self._refused(self._argv(run, tmp_path, command), capsys)
        assert message == f"{run['corpus']}: unrecognized corpus format 'hypalign-corpus-v1'"

    @pytest.mark.parametrize("field, value, interval", [
        ("noise_scale", float("nan"), "[0, inf)"), ("seed", -1, "[0, inf)"),
        ("min_separation", float("inf"), "(-inf, inf)"), ("spread", "wide", "(-inf, inf)"),
    ])
    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_corpus_header_value_outside_its_domain(self, run, capsys, tmp_path, command,
                                                    field, value, interval):
        self._edit_corpus(run, lambda records: records[0].update({field: value}))
        message = self._refused(self._argv(run, tmp_path, command), capsys)
        assert message == (f"{run['corpus']}: corpus header's {field} {value!r} "
                           f"outside its domain {interval}")

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", 1.5, "an integer"), ("seed", True, "an integer"),
        ("noise_scale", True, "a real number"),
    ])
    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_corpus_header_value_of_the_wrong_kind(self, run, capsys, tmp_path, command,
                                                   field, value, kind):
        self._edit_corpus(run, lambda records: records[0].update({field: value}))
        message = self._refused(self._argv(run, tmp_path, command), capsys)
        assert message == f"{run['corpus']}: corpus header's {field} {value!r} is not {kind}"

    # records[k] is line k + 1: the header, scenes s000-s007, then their parts
    @pytest.mark.parametrize("edit, line, field", [
        pytest.param(lambda recs: recs[3].update(latent=decode(recs[3]["latent"]).tolist()),
                     4, "latent", id="view-not-a-string"),
        pytest.param(lambda recs: recs[3].update(image_view="*" + recs[3]["image_view"][1:]),
                     4, "image_view", id="view-not-base64"),
        pytest.param(lambda recs: recs[3].update(
            text_view=encode(decode(recs[3]["text_view"])[:-1])),
                     4, "text_view", id="view-byte-count"),
        pytest.param(lambda recs: recs[12].update(
            latent=encode(np.append(decode(recs[12]["latent"])[:-1], np.nan))),
                     13, "latent", id="view-non-finite"),
        pytest.param(lambda recs: recs[10].update(representativeness="high"),
                     11, "representativeness", id="representativeness-not-a-number"),
        pytest.param(lambda recs: recs[3].update(id=7), 4, "id", id="id-not-a-string"),
        pytest.param(lambda recs: recs[12].update(parent="s999"), 13, "parent",
                     id="parent-names-no-scene"),
        pytest.param(lambda recs: recs[4].update(id=recs[3]["id"]), 5, "id",
                     id="scene-id-repeated"),
    ])
    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_malformed_corpus_record(self, run, capsys, tmp_path, command, edit, line, field):
        self._edit_corpus(run, edit)
        message = self._refused(self._argv(run, tmp_path, command), capsys)
        assert message.startswith(f"{run['corpus']}:{line}: corpus record's '{field}'")

    def test_scene_without_parts(self, tmp_path, capsys):
        # the total part count still matches: s000's two parts belong to s001
        corpus = tmp_path / "corpus.txt"
        assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "5",
                     "--out", str(corpus)]) == 0
        corpus.write_text(corpus.read_text().replace('"parent": "s000"', '"parent": "s001"'))
        message = self._refused(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r"),
                                 "--steps", "3", "--batch-size", "8"], capsys)
        assert message == f"{corpus}:2: corpus scene 's000' is the parent of no part"

    def test_truncated_checkpoint(self, run, capsys):
        text = run["checkpoint"].read_text()
        run["checkpoint"].write_text(text[:len(text) // 2])
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and "not JSON" in message

    def test_checkpoint_integer_past_the_digit_limit(self, run, capsys):
        text = run["checkpoint"].read_text()
        run["checkpoint"].write_text(text.replace('"step": ', '"step": 1' + "0" * 5000, 1))
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and "not JSON" in message

    @pytest.mark.parametrize("field", ["params", "opt_m", "step"])
    def test_checkpoint_without_field(self, run, capsys, field):
        payload = json.loads(run["checkpoint"].read_text())
        del payload[field]
        run["checkpoint"].write_text(json.dumps(payload))
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and f"'{field}'" in message

    @pytest.mark.parametrize("field, value", [
        ("params", []), ("opt_v", None), ("step", "5"), ("config_hash", 3),
    ])
    def test_checkpoint_field_of_wrong_type(self, run, capsys, field, value):
        payload = json.loads(run["checkpoint"].read_text())
        payload[field] = value
        run["checkpoint"].write_text(json.dumps(payload))
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and f"'{field}'" in message

    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    @pytest.mark.parametrize("field, value", [
        ("step", -1), ("opt_t", -3), ("step", True), ("opt_t", False),
    ])
    def test_checkpoint_counter_no_run_writes(self, run, capsys, tmp_path, command,
                                              field, value):
        payload = json.loads(run["checkpoint"].read_text())
        payload[field] = value
        run["checkpoint"].write_text(json.dumps(payload))
        argv = self._argv(run, tmp_path, command)
        if command == "train":
            argv += ["--resume", str(run["checkpoint"])]
        message = self._refused(argv, capsys)
        assert message == (f"{run['checkpoint']}: checkpoint counter(s) "
                           f"{ {field: value} } not the non-negative integer a run writes")

    def test_unsupported_checkpoint_format(self, run, capsys):
        payload = json.loads(run["checkpoint"].read_text())
        payload["format_version"] = -1
        run["checkpoint"].write_text(json.dumps(payload))
        assert self._eval(run, capsys) == (
            f"{run['checkpoint']}: unsupported checkpoint format -1")

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.pop("shape"),
        lambda rec: rec.update(shape=None),
        lambda rec: rec.update(data=encode(decode(rec["data"])[:-1])),
        lambda rec: rec.update(data="kappa"),
        lambda rec: rec.update(data=["x"] * decode(rec["data"]).size),
        lambda rec: rec.clear() or rec.update(kappa=1),
        # format 1's float list in a format 2 file
        lambda rec: rec.update(data=decode(rec["data"]).tolist()),
        # not base64: a character outside its alphabet, a lost padding character
        lambda rec: rec.update(data="*" + rec["data"][1:]),
        lambda rec: rec.update(data=rec["data"][:-1]),
        # a byte count that is not a multiple of 8
        lambda rec: rec.update(data=reencode_bytes(rec["data"], lambda b: b[:-3])),
        # a value count that does not match the shape
        lambda rec: rec.update(data=encode(np.resize(decode(rec["data"]), 8 * 16 + 1))),
        # shapes reshape would infer or accept: -1, another rank, no ints
        lambda rec: rec.update(shape=[-1]),
        lambda rec: rec.update(shape=[8, -1]),
        lambda rec: rec.update(shape=[2, 8, 16]),
        lambda rec: rec.update(shape=[2, 4, 16]),
        lambda rec: rec.update(shape=[128]),
        lambda rec: rec.update(shape=[8.0, 16.0]),
        lambda rec: rec.update(shape=[True, 128]),
        # a table of width 0, which no run trains
        lambda rec: rec.update(shape=[rec["shape"][0], 0], data=encode([])),
    ])
    def test_malformed_parameter(self, run, capsys, edit):
        payload = json.loads(run["checkpoint"].read_text())
        edit(payload["params"]["table_scene_img"])
        run["checkpoint"].write_text(json.dumps(payload))
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and "'table_scene_img'" in message

    @pytest.mark.parametrize("name, edit", [
        # a scalar is shape [], not [1]
        ("kappa", lambda rec: rec.update(shape=[1])),
        ("kappa", lambda rec: rec.update(data=encode([1.0, 2.0]))),
        # the same number of values as the other tables, in another width
        ("table_part_txt", lambda rec: rec.update(shape=[32, 8])),
        ("kappa", None),                        # missing
        ("extra", lambda rec: None),            # unknown
    ])
    def test_malformed_parameter_set(self, run, capsys, name, edit):
        payload = json.loads(run["checkpoint"].read_text())
        params = payload["params"]
        if edit is None:
            del params[name]
        else:
            edit(params.setdefault(name, dict(params["kappa"])))
        run["checkpoint"].write_text(json.dumps(payload))
        message = self._eval(run, capsys)
        assert message.startswith(f"{run['checkpoint']}:") and f"'{name}'" in message

    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    def test_format_1_checkpoint_refused(self, run, capsys, tmp_path, command):
        old = tmp_path / "format1.json"
        old.write_text(json.dumps(as_format_1(json.loads(run["checkpoint"].read_text()))))
        if command == "train":
            argv = ["train", "--corpus", str(run["corpus"]), "--out", str(tmp_path / "r2"),
                    "--steps", "4", "--batch-size", "4", "--seed", "7", "--resume", str(old)]
        else:
            argv = [command, "--checkpoint", str(old), "--corpus", str(run["corpus"]),
                    "--out", str(tmp_path / "out")]
        code = main(argv)
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        assert errors[0] == ("error kind=contract message="
                             + json.dumps(f"{old}: unsupported checkpoint format 1"))

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("scenes, parts", [(16, 2), (4, 2), (8, 3)])
    def test_corpus_of_another_size(self, run, capsys, tmp_path, command, scenes, parts):
        # the checkpoint was trained on 8 scenes of 2 parts
        other = tmp_path / "other.txt"
        assert main(["generate", "--scenes", str(scenes), "--parts", str(parts),
                     "--seed", "7", "--latent-dim", "16", "--out", str(other)]) == 0
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(run["checkpoint"]),
                     "--corpus", str(other), "--out", str(out)])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        assert errors[0].startswith("error kind=contract message=")
        message = json.loads(errors[0].partition("message=")[2])
        assert message.startswith(f"{run['checkpoint']}:") and str(other) in message
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("opt_m", []), ("opt_v", ["x"]), ("opt_m", None),
        # format 2 text: no bytes, not base64, two values for a scalar
        ("opt_m", ""), ("opt_v", "not base64!"), ("opt_m", encode([0.0, 0.0])),
        # values no run writes: a non-finite moment, a negative second moment
        ("opt_m", encode([np.inf])), ("opt_v", encode([np.nan])), ("opt_v", encode([-1.0])),
    ])
    def test_resume_from_malformed_moment(self, run, corpus_path, tmp_path, capsys,
                                          field, value):
        payload = json.loads(run["checkpoint"].read_text())
        # read as a step-1 checkpoint, so a resume that took the moment would
        # run a step
        payload["step"] = 1
        if value is None:
            del payload[field]["kappa"]
        else:
            payload[field]["kappa"] = value
        run["checkpoint"].write_text(json.dumps(payload))
        code = main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "r2"),
                     "--steps", "2", "--batch-size", "4", "--seed", "7",
                     "--resume", str(run["checkpoint"])])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        message = json.loads(errors[0].partition("message=")[2])
        assert message.startswith(f"{run['checkpoint']}:") and f"{field}['kappa']" in message
        assert not (tmp_path / "r2" / "failure_dump.json").exists()

    def test_resume_on_a_corpus_of_another_size(self, run, capsys, tmp_path):
        # the checkpoint was trained on 8 scenes of 2 parts; the same
        # configuration on 16 scenes hashes alike, and only the tables' rows
        # differ: the first table, in store order, is named, as eval and
        # export name it
        other = tmp_path / "other.txt"
        assert main(["generate", "--scenes", "16", "--parts", "2", "--seed", "7",
                     "--latent-dim", "16", "--out", str(other)]) == 0
        code = main(["train", "--corpus", str(other), "--out", str(tmp_path / "r2"),
                     "--steps", "2", "--batch-size", "4", "--seed", "7",
                     "--resume", str(run["checkpoint"])])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        assert errors[0].startswith("error kind=contract message=")
        assert json.loads(errors[0].partition("message=")[2]) == (
            f"{run['checkpoint']}: parameter 'table_scene_img' has 8 rows but the corpus "
            "holds 16 scene concepts")

    def test_resume_from_tables_of_another_width(self, run, capsys, tmp_path):
        # every table cut to 8 of its 16 columns: a store eval would load,
        # under the same configuration hash, but not this run's table_dim
        payload = json.loads(run["checkpoint"].read_text())
        for rec in payload["params"].values():
            if len(rec["shape"]) == 2:
                rows = rec["shape"][0]
                rec["data"] = encode(decode(rec["data"]).reshape(rows, 16)[:, :8].ravel())
                rec["shape"] = [rows, 8]
        run["checkpoint"].write_text(json.dumps(payload))
        code = main(["train", "--corpus", str(run["corpus"]), "--out", str(tmp_path / "r2"),
                     "--steps", "2", "--batch-size", "4", "--seed", "7",
                     "--resume", str(run["checkpoint"])])
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        assert json.loads(errors[0].partition("message=")[2]) == (
            f"{run['checkpoint']}: parameter 'table_scene_img' has 8 columns but this run's "
            "table_dim is 16")

    @pytest.mark.parametrize("command", ["eval", "export", "train"])
    @pytest.mark.parametrize("name, entry, value, detail", [
        ("table_part_img", 0, np.nan, "holds a non-finite entry"),
        ("c_txt", 0, -np.inf, "holds a non-finite entry"),
        ("kappa", 0, 0.05, "'kappa' 0.05 outside [0.1, 10.0]"),
        ("kappa", 0, 10.5, "'kappa' 10.5 outside [0.1, 10.0]"),
        # training clamps every temperature back to the 0.01 floor
        ("tau_g", 0, -1.0, "'tau_g' -1.0 outside [0.01, inf]"),
        ("tau_gl", 0, 0.005, "'tau_gl' 0.005 outside [0.01, inf]"),
        # finite, but cosh of the row's lift overflows: 3000 * c_txt = 750
        ("table_scene_txt", 21, 3000.0, "'table_scene_txt' row 1 lifts past the float range"),
    ])
    def test_parameter_value_no_run_leaves(self, run, capsys, tmp_path, command, name,
                                           entry, value, detail):
        payload = json.loads(run["checkpoint"].read_text())
        values = decode(payload["params"][name]["data"])
        values[entry] = value
        payload["params"][name]["data"] = encode(values)
        run["checkpoint"].write_text(json.dumps(payload))
        if command == "train":
            argv = ["train", "--corpus", str(run["corpus"]), "--out", str(tmp_path / "r2"),
                    "--steps", "2", "--batch-size", "4", "--seed", "7",
                    "--resume", str(run["checkpoint"])]
        else:
            argv = [command, "--checkpoint", str(run["checkpoint"]),
                    "--corpus", str(run["corpus"]), "--out", str(tmp_path / "out")]
        code = main(argv)
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error ")]
        assert code == 1 and len(errors) == 1
        assert errors[0].startswith("error kind=contract message=")
        message = json.loads(errors[0].partition("message=")[2])
        assert message.startswith(f"{run['checkpoint']}: ") and detail in message
        assert f"{name!r}" in message

    @pytest.mark.parametrize("text", ['{"parent": {"root": nu', '{"tree": {}}'])
    def test_malformed_taxonomy(self, run, capsys, tmp_path, text):
        tax = tmp_path / "tax.json"
        tax.write_text(text)
        assert self._eval(run, capsys, "--taxonomy", str(tax)).startswith(f"{tax}:")

    @pytest.mark.parametrize("text, detail", [
        ('{"parent": {"root": 1' + "0" * 5000 + "}}", "taxonomy is not JSON"),
        ('{"parent": {"a": null, "b": null}}', "taxonomy needs exactly one root"),
        ('{"parent": {"r": null, "a": "b", "b": "a"}}', "taxonomy contains a cycle"),
        ('{"parent": {"r": null, "a": "missing"}}', "unknown parent 'missing'"),
        ('{"parent": {"root": null, "s000": "root"}}', "taxonomy lacks label(s) ['s001',"),
    ])
    def test_taxonomy_refused_naming_the_file(self, run, capsys, tmp_path, text, detail):
        tax = tmp_path / "tax.json"
        tax.write_text(text)
        assert self._eval(run, capsys, "--taxonomy", str(tax)).startswith(f"{tax}: {detail}")


class TestEvalExportOfSeededTables:
    """``eval`` and ``export`` of a generated corpus and a checkpoint of
    seeded tables, written with no training step (``write_seeded_run``), so
    only a change to eval, export or the input formats can move them."""

    # SHA-256 of the eval report and the export CSV of a 64x4 corpus
    def test_output_is_pinned(self, tmp_path):
        corpus, checkpoint = write_seeded_run(tmp_path, 64, 4, 5)
        want = {"eval": "6ad966adb3fb42997a6a81368debd73751e165b98c53aa72ad600c8790dcbfe5",
                "export": "d23a17746c5bbb828c9d7f6ee765b86e33f22e06a8b6828ac76953a34487b906"}
        for command, sha256 in want.items():
            out = tmp_path / command
            assert main([command, "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                         "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256, command

    @pytest.fixture(scope="class")
    def wide_run(self, tmp_path_factory):
        return write_seeded_run(tmp_path_factory.mktemp("wide"), 512, 4, 5)

    # traced peak in (S, S) float64 matrices at S = 512: each command holds
    # at most one similarity matrix plus the outer product that builds the
    # next, and drops the checkpoint's parsed payload before the corpus is
    # read (about 3.8 and 2.9; 7.0 and 5.6 when evaluate held two matrices
    # and a copy, and the payload stayed alive)
    @pytest.mark.parametrize("command, bound", [("eval", 5.0), ("export", 4.0)])
    def test_peak_memory(self, wide_run, tmp_path, command, bound):
        corpus, checkpoint = wide_run
        argv = [command, "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                "--out", str(tmp_path / command)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrices = peak / (512 * 512 * 8)
        assert matrices <= bound, f"peak {matrices:.2f} matrices"


class TestCheckGrads:
    # SHA-256 of check-grads' stdout at the default settings, and its exit
    # code, as the check gave them with one forward per perturbed
    # coordinate; seeds 6 and 6225 fail on the finite differences' rounding
    # floor (exit 3) and keep those bytes too
    @pytest.mark.parametrize("seed, sha256, code", [
        (1, "b8c115bb76b947381f872ef0f061e1d757e652e095aec2ac2f5bd8d274027ad3", 0),
        (2, "169929443df8cbf7df92471e154f94e7b80c5a67f6613fc212a9097cf0b11610", 0),
        (3, "2cd7dd60b12de2903edf12660f2df1f5da1d4824d95c38aeb2f4820c78e87f69", 0),
        (4, "56dad5e71fc759cb1ce68fa89bed8735e6f1008dbf79f046f5dad35cbd7f4ae0", 0),
        (5, "0e98227e3a47ea3295d801a41e507aeebbafe9209a108c8fa76b935456f55947", 0),
        (6, "c2b7593c87b68cac7d81e07727842dc209be07443ad04fa3f27fb967b7aeddc5", 3),
        (7, "dffbd85b6a18a114774e929fa479d93e6415ec4427749f876b635ec02bd9f7c0", 0),
        (8, "f1f64dc14ffba17b8bf142859e4251652fb6d497de052808ebfa59d61d4488a4", 0),
        (9, "70c22e0db9851ca79b7a0eb97057296beefc5e412c98083c6968e7b9225c553f", 0),
        (10, "57057328521a99860787c9f889a41d3c0b1e79cbc7b2d22677f3a1235e61c4b4", 0),
        (208, "efdd503767e0d5b7c9742628ccd22700bc42e901e3401aa4b4979939514e61e1", 0),
        (6225, "fa45e61d37cc671c1c77867c183c87e3750cac293b2334f3e629f7f52745a160", 3),
    ])
    def test_output_is_pinned(self, capsys, seed, sha256, code):
        assert main(["check-grads", "--seed", str(seed)]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

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

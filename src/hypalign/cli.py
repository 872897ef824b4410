"""Command-line entry point: generate / train / eval / check-grads / export.

Every subcommand is deterministic given identical inputs and seeds; all
artifacts (corpus files, metrics, checkpoints, eval reports, CSV exports)
are byte-reproducible.  Configuration comes from an optional flat
``key=value`` file, overridden by flags; the ``UNCHA_SEED`` environment
variable supplies the seed when neither gives one.

Exit codes: 0 success, 1 contract/config error, 2 numerical-consistency
error, 3 failed gradient check.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from typing import get_type_hints

from .autodiff import value_of
from .entailment import ConeParams
from .errors import ContractViolationError, HypalignError
from .evalmetrics import Taxonomy, evaluate, scaled_tables
from .gradcheck import format_results, run_check_grads
from .losses import GROUPS, LAYOUT, LossConfig, TemperatureSet
from .manifold import Manifold, hyperbolic_radius
from .synthdata import GeneratorParams, generate, load as load_corpus, save as save_corpus
from .trainer import TEMPERATURE_PARAMS, TrainConfig, load_checkpoint, store_from_payload, train
from .uncertainty import uncertainty


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ContractViolationError(f"not a boolean: {text!r}")


_CASTERS = {int: int, float: float, bool: _bool}


def _scalar_keys(section: str, cls) -> dict:
    """Schema entries for the int/float/bool fields of dataclass ``cls``,
    each keyed by its field name."""
    return {name: (section, name, _CASTERS[hint])
            for name, hint in get_type_hints(cls).items() if hint in _CASTERS}


# flat config-file schema: key -> (section, field, caster); the temperatures
# take their parameter names as keys
CONFIG_SCHEMA = {
    **_scalar_keys("train", TrainConfig),
    **{key: ("temps", name, float) for name, key in TEMPERATURE_PARAMS.items()},
    **_scalar_keys("cone", ConeParams),
    **_scalar_keys("loss", LossConfig),
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` text (``#`` comments); unknown keys rejected."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractViolationError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in CONFIG_SCHEMA:
                raise ContractViolationError(f"{path}:{lineno}: unknown config key {key!r}")
            _, _, caster = CONFIG_SCHEMA[key]
            try:
                values[key] = caster(text.strip())
            except ValueError as err:
                raise ContractViolationError(f"{path}:{lineno}: {err}") from None
    return values


def _env_seed(default: int) -> int:
    """The ``UNCHA_SEED`` environment variable, or ``default`` when it is
    unset or empty."""
    raw = os.environ.get("UNCHA_SEED")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ContractViolationError(f"UNCHA_SEED is not an integer: {raw!r}") from None


def build_train_config(file_values: dict, flag_values: dict) -> TrainConfig:
    """Defaults < config file < flags; seed additionally falls back to the
    UNCHA_SEED environment variable."""
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    if "seed" not in merged:
        merged["seed"] = _env_seed(TrainConfig.seed)
    sections = {"train": {}, "temps": {}, "cone": {}, "loss": {}}
    for key, value in merged.items():
        section, field, _ = CONFIG_SCHEMA[key]
        sections[section][field] = value
    loss = LossConfig(
        temps=TemperatureSet(**sections["temps"]),
        cone=ConeParams(**sections["cone"]),
        **sections["loss"],
    )
    return TrainConfig(loss=loss, **sections["train"])


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as contract errors (exit 1)."""

    def error(self, message):
        raise ContractViolationError(f"argument error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic part-whole corpus")
    # settings flags are None unless given; dest names the GeneratorParams field
    gen.add_argument("--scenes", dest="num_scenes", type=int)
    gen.add_argument("--parts", dest="parts_per_scene", type=int)
    gen.add_argument("--latent-dim", type=int)
    gen.add_argument("--noise-scale", type=float)
    gen.add_argument("--spread", type=float)
    gen.add_argument("--min-separation", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="run the optimization loop")
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--out", required=True)
    # settings flags are None unless given; dest names the config-file key
    tr.add_argument("--steps", type=int)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--warmup", dest="warmup_steps", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--config", default=None)
    tr.add_argument("--resume", default=None)

    ev = sub.add_parser("eval", help="evaluate a checkpoint against a corpus")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--taxonomy", default=None)
    ev.add_argument("--out", required=True)

    cg = sub.add_parser("check-grads", help="finite-difference gradient verification")
    cg.add_argument("--seed", type=int, default=None)
    cg.add_argument("--step", type=float, default=1e-5)
    cg.add_argument("--tolerance", type=float, default=1e-4)
    cg.add_argument("--max-coords", type=int, default=200)

    ex = sub.add_parser("export", help="dump embeddings with radii/uncertainties as CSV")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--corpus", required=True)
    ex.add_argument("--out", required=True)
    return parser


def _log_config(command: str, payload: dict) -> None:
    print(f"resolved-config {json.dumps({'command': command, **payload})}",
          file=sys.stderr)


def _cmd_generate(args) -> int:
    settings = {f.name: getattr(args, f.name) for f in fields(GeneratorParams)
                if getattr(args, f.name) is not None}
    settings.setdefault("seed", _env_seed(GeneratorParams.seed))
    params = GeneratorParams(**settings)
    _log_config("generate", {**asdict(params), "out": args.out})
    save_corpus(generate(**asdict(params)), args.out)
    return 0


def _cmd_train(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {k: v for k, v in vars(args).items() if k in CONFIG_SCHEMA}
    cfg = build_train_config(file_values, flag_values)
    _log_config("train", {**asdict(cfg), "corpus": args.corpus,
                          "out": args.out, "resume": args.resume})
    corpus = load_corpus(args.corpus)
    train(corpus, cfg, args.out, resume=args.resume)
    return 0


def _cmd_eval(args) -> int:
    _log_config("eval", {"checkpoint": args.checkpoint, "corpus": args.corpus,
                         "taxonomy": args.taxonomy, "out": args.out})
    payload = load_checkpoint(args.checkpoint)
    store = store_from_payload(payload)
    corpus = load_corpus(args.corpus)
    taxonomy = Taxonomy.from_file(args.taxonomy) if args.taxonomy else None
    m = Manifold(float(value_of(store["kappa"])))
    report = evaluate(corpus, store, m, taxonomy)
    report["checkpoint_step"] = payload["step"]
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_check_grads(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed(1)
    _log_config("check-grads", {"seed": seed, "step": args.step,
                                "tolerance": args.tolerance,
                                "max_coords": args.max_coords})
    results, passed = run_check_grads(
        seed, step=args.step, tolerance=args.tolerance, max_coords=args.max_coords
    )
    print(format_results(results))
    print(f"check-grads {'passed' if passed else 'FAILED'}")
    return 0 if passed else 3


def _cmd_export(args) -> int:
    _log_config("export", {"checkpoint": args.checkpoint, "corpus": args.corpus,
                           "out": args.out})
    payload = load_checkpoint(args.checkpoint)
    store = store_from_payload(payload)
    corpus = load_corpus(args.corpus)
    m = Manifold(float(value_of(store["kappa"])))
    tables = scaled_tables(store)
    dim = tables[GROUPS[0]].shape[1]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "view", "level", "radius", "uncertainty"]
                        + [f"v{i}" for i in range(dim)])
        # scene rows before part rows, image before text within each
        for group, src in LAYOUT.items():
            embs = tables[group]
            radii = hyperbolic_radius(embs, m)
            uncs = uncertainty(embs)
            for row, concept in enumerate(corpus.concepts(src.level)):
                writer.writerow(
                    [concept.id, src.modality, src.level, repr(float(radii[row])),
                     repr(float(uncs[row]))]
                    + [repr(float(x)) for x in embs[row]]
                )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "check-grads": _cmd_check_grads,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except HypalignError as err:
        print(f"error kind={err.kind} message={json.dumps(str(err))}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error kind=contract message={json.dumps(str(err))}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

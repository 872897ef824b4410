"""Fuzzing the ``--config`` file of ``hypalign train``.

The config file of a 3-step ``train`` on an 8x2 corpus holds every key of
the schema at its default value, but for a batch that fits the corpus.  It
gets one of ``test_fuzz_eval.py``'s mutations, made on its ``key = value``
lines: a line dropped, duplicated or truncated; a value swapped for the
text of another JSON type; a value replaced by ``NaN``, ``Infinity``,
``-1``, ``0``, ``1e308`` or a huge integer; or a character flipped to a
base64 character.  ``--steps 3`` is given as a flag, which overrides the
file, so no mutation lengthens the run.  ``train`` runs in-process through
``cli.main``: it exits 0; or exits 1 with exactly one ``error
kind=contract`` line; or exits 2 with exactly one ``error kind=numerical``
line.  No exception escapes ``main`` and no warning is raised.
"""

import contextlib
import io
import json
import tempfile
import warnings

import pytest
from hypothesis import given, strategies as st

from hypalign.cli import CONFIG_SCHEMA, main
from hypalign.trainer import TrainConfig

from test_fuzz_eval import _BASE64, _OTHER_TYPES, _TOKENS

KINDS = {1: "contract", 2: "numerical"}     # exit code -> error kind


def _default_lines() -> list[str]:
    cfg = TrainConfig(batch_size=4)
    holders = {"train": cfg, "temps": cfg.loss.temps, "cone": cfg.loss.cone, "loss": cfg.loss}
    return [f"{key} = {json.dumps(getattr(holders[section], name))}"
            for key, (section, name, _) in CONFIG_SCHEMA.items()]


@st.composite
def _mutated(draw, lines):
    """The config text after one mutation of one of its lines."""
    kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "retype", "special", "flip"]))
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    key = lines[i].partition(" = ")[0]
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "retype":
        value = draw(st.sampled_from(_OTHER_TYPES))
        lines[i] = f"{key} = {value if isinstance(value, str) else json.dumps(value)}"
    elif kind == "special":
        lines[i] = f"{key} = {draw(st.sampled_from(_TOKENS))}"
    else:               # a character of the key or the value
        at = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_BASE64)) + lines[i][at + 1:]
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_config") / "corpus.txt"
    assert main(["generate", "--scenes", "8", "--parts", "2", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


def _train(corpus, text) -> tuple[int, str]:
    """``train`` with ``text`` as its config file: (exit code, stderr)."""
    root = tempfile.mkdtemp(dir=corpus.parent)
    config = f"{root}/train.cfg"
    with open(config, "w") as fh:
        fh.write(text)
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main(["train", "--corpus", str(corpus), "--out", f"{root}/run",
                         "--steps", "3", "--config", config])
    return code, err.getvalue()


def _assert_exit_and_kind(code, err):
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert "Traceback" not in err
    if code == 0:
        assert errors == [], err
        return
    assert code in (1, 2), err
    assert len(errors) == 1 and errors[0].startswith(f"error kind={KINDS[code]} message="), err


def test_unmutated_config_trains(corpus):
    code, err = _train(corpus, "".join(line + "\n" for line in _default_lines()))
    assert code == 0 and [ln.partition(" ")[0] for ln in err.splitlines()] == ["resolved-config"]


@given(data=st.data())
def test_mutated_config(corpus, data):
    _assert_exit_and_kind(*_train(corpus, data.draw(_mutated(_default_lines()))))


@pytest.mark.parametrize("token", _TOKENS)
def test_special_value_in_every_key(corpus, token):
    for i, line in enumerate(_default_lines()):
        lines = _default_lines()
        lines[i] = f"{line.partition(' = ')[0]} = {token}"
        _assert_exit_and_kind(*_train(corpus, "".join(ln + "\n" for ln in lines)))

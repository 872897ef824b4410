"""Fuzzing the input files of ``hypalign eval`` and ``export``.

A valid 8x2 corpus file, a taxonomy file for it, or a checkpoint trained on
it gets one mutation and is handed to ``eval`` in-process through
``cli.main`` with the other two files (a mutated checkpoint to ``export``
as well): a line dropped, duplicated or truncated; a JSON value swapped for
one of another type; a character of a string (a base64 view or array, an
id, a label) flipped to a base64 character; or ``NaN``, ``Infinity``,
``-1``, ``0``, ``1e308`` or a huge integer put into a field.  Whatever the
file then holds, the command exits 0 having written only finite numbers,
or exits 1 with exactly one ``error kind=contract`` line whose message
names the file; any exception escaping ``main`` fails the test.
"""

import contextlib
import copy
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypalign.cli import main
from hypalign.synthdata import load

from _checkpoint_data import decode, encode

_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_OTHER_TYPES = [None, True, 1, 1.5, "x", [], {}]
# raw JSON tokens; the huge integers pass float's range and Python's
# int-from-text digit limit
_TOKENS = ["NaN", "Infinity", "-1", "0", "1e308", "1" + "0" * 400, "9" * 5000]
_PLACEHOLDER = "\x00token\x00"
KINDS = ["corpus", "taxonomy", "checkpoint"]    # the mutated file
# the commands each kind of file is handed to
COMMANDS = {"corpus": ["eval"], "taxonomy": ["eval"], "checkpoint": ["eval", "export"]}


def _corpus_docs(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _dump_corpus(docs):
    return "".join(json.dumps(doc) + "\n" for doc in docs)


def _dump_indented(docs):
    # one value per line, so that line mutations hit single entries
    return json.dumps(docs[0], indent=1) + "\n"


def _paths(value, prefix=()):
    """The key path of every value nested in ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw, docs, dump):
    """``dump(docs)`` after one mutation."""
    kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "retype", "special", "flip"]))
    if kind in ("drop", "duplicate", "truncate"):
        lines = dump(docs).splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:draw(st.integers(0, max(0, len(lines[i]) - 1)))]
        return "".join(line + "\n" for line in lines)
    docs = copy.deepcopy(docs)
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    paths = list(_paths(doc))
    if kind == "flip":      # a character of a string: base64 views, ids, labels
        paths = [path for path in paths if isinstance(_at(doc, path), str) and _at(doc, path)]
    *outer, key = draw(st.sampled_from(paths))
    holder = _at(doc, outer)
    if kind == "flip":
        text = holder[key]
        at = draw(st.integers(0, len(text) - 1))
        holder[key] = text[:at] + draw(st.sampled_from(_BASE64)) + text[at + 1:]
        return dump(docs)
    if kind == "retype":
        old = holder[key]
        holder[key] = draw(st.sampled_from([v for v in _OTHER_TYPES
                                            if type(v) is not type(old)]))
        return dump(docs)
    holder[key] = _PLACEHOLDER
    return dump(docs).replace(json.dumps(_PLACEHOLDER), draw(st.sampled_from(_TOKENS)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per file kind: its valid path, its JSON documents and how to write them."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, run = root / "corpus.txt", root / "run"
    assert main(["generate", "--scenes", "8", "--parts", "2", "--latent-dim", "4",
                 "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--steps", "2",
                 "--batch-size", "4", "--seed", "7"]) == 0
    loaded = load(corpus)
    scene_ids = loaded.ids["scene"]
    parents = {"root": None, **dict.fromkeys(scene_ids, "root")}
    for pid, row in zip(loaded.ids["part"], loaded.parent_rows):
        parents[pid] = scene_ids[row]
    taxonomy = root / "taxonomy.json"
    taxonomy.write_text(_dump_indented([{"parent": parents}]))
    checkpoint = run / "checkpoint_final.json"
    return {"root": root,
            "corpus": (corpus, _corpus_docs(corpus), _dump_corpus),
            "taxonomy": (taxonomy, [{"parent": parents}], _dump_indented),
            "checkpoint": (checkpoint, [json.loads(checkpoint.read_text())], _dump_indented)}


def _run(files, command, kind, text):
    """Run ``command`` with file ``kind`` holding ``text``; (exit code,
    stderr, the mutated file's path, the output's path)."""
    names = KINDS if command == "eval" else ["corpus", "checkpoint"]
    paths = {name: files[name][0] for name in names}
    paths[kind] = files["root"] / f"mutated_{kind}"
    paths[kind].write_text(text)
    out = files["root"] / f"{command}.out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *(f"--{name}={path}" for name, path in paths.items()),
                     "--out", str(out)])
    return code, err.getvalue(), paths[kind], out


def _refuse(token):
    raise AssertionError(f"report holds {token}")


def _assert_finite_output(out):
    """The written report or CSV holds only finite numbers."""
    text = out.read_text()
    if out.name == "eval.out":
        json.loads(text, parse_constant=_refuse)
        return
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        assert np.all(np.isfinite(np.array(row[3:], dtype=float))), row[0]


def _assert_accepted_or_named(code, err, path, out):
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert "Traceback" not in err
    if code == 0:
        assert errors == []
        _assert_finite_output(out)
        return
    assert code == 1, err
    assert len(errors) == 1 and errors[0].startswith("error kind=contract message="), err
    assert str(path) in json.loads(errors[0].partition("message=")[2]), err


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_files_evaluate(files, kind):
    _, docs, dump = files[kind]
    for command in COMMANDS[kind]:
        assert _run(files, command, kind, dump(docs))[0] == 0


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_mutated_file(files, kind, data):
    _, docs, dump = files[kind]
    text = data.draw(_mutated(docs, dump))
    for command in COMMANDS[kind]:
        _assert_accepted_or_named(*_run(files, command, kind, text))


def _special_fields(kind, docs):
    """(document, key path) of each field that gets every special value."""
    if kind == "corpus":        # every field of the header, a scene and a part
        return [(line, (key,)) for line in (0, 1, -1) for key in docs[line]]
    if kind == "checkpoint":    # every field, and a table's and a scalar's record
        return [(0, (key,)) for key in docs[0]] + [
            (0, ("params", name, key)) for name in ("table_part_img", "kappa")
            for key in ("shape", "data")]
    return [(0, ("parent",)), (0, ("parent", "s000"))]


@pytest.mark.parametrize("kind", KINDS)
def test_special_values_in_chosen_fields(files, kind):
    _, docs, dump = files[kind]
    for line, (*outer, key) in _special_fields(kind, docs):
        for token in _TOKENS:
            mutated = copy.deepcopy(docs)
            _at(mutated[line], outer)[key] = _PLACEHOLDER
            text = dump(mutated).replace(json.dumps(_PLACEHOLDER), token)
            for command in COMMANDS[kind]:
                _assert_accepted_or_named(*_run(files, command, kind, text))


@pytest.mark.parametrize("name", ["table_part_img", "kappa", "c_img", "tau_gl"])
def test_special_values_in_checkpoint_arrays(files, name):
    # a value no training run leaves behind, in the first entry of an array
    _, docs, dump = files["checkpoint"]
    for value in (np.nan, np.inf, -np.inf, -1.0, 0.0, 1e-320, 3e3, 1e308):
        mutated = copy.deepcopy(docs)
        record = mutated[0]["params"][name]
        entries = decode(record["data"])
        entries[0] = value
        record["data"] = encode(entries)
        for command in COMMANDS["checkpoint"]:
            _assert_accepted_or_named(*_run(files, command, "checkpoint", dump(mutated)))

"""Synthetic-corpus generator: determinism, ground-truth structure, and
batch sampling."""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from hypalign.errors import ContractViolationError, GenerationError
from hypalign.synthdata import GeneratorParams, generate, load, sample_batch, save

import _oracles as orc
from _checkpoint_data import encode

# the views of a 2-dimensional record: one float64 pair as corpus text (a
# record that repeats one of these keys after them gets its own value: json
# keeps a repeated key's last value)
_VIEWS_2D = ', '.join(f'"{v}": "{encode([1.0, 2.0])}"'
                      for v in ("latent", "image_view", "text_view"))


class TestGenerate:
    def test_same_seed_reproduces_bitwise(self, tmp_path):
        a = generate(num_scenes=8, parts_per_scene=3, seed=5)
        b = generate(num_scenes=8, parts_per_scene=3, seed=5)
        assert a.ids == b.ids
        assert a.views.keys() == b.views.keys()
        for key, table in a.views.items():
            assert np.array_equal(table, b.views[key])
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save(a, pa)
        save(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noiseless_fully_representative_parts_equal_scene_views(self):
        corpus = generate(num_scenes=4, parts_per_scene=2, noise_scale=0.0, seed=3)
        latents = corpus.views["part", "latent"]
        for part, scene in enumerate(corpus.parent_rows):
            # views are exact latents at zero noise; displacement scales with
            # (1 - representativeness)
            np.testing.assert_array_equal(corpus.views["part", "image"][part], latents[part])
            offset = np.linalg.norm(latents[part] - corpus.views["scene", "latent"][scene])
            expected = (1.0 - corpus.representativeness[part]) * corpus.params.spread
            assert offset == pytest.approx(expected, rel=1e-12)

    def test_cosine_vs_representativeness_rank_correlation(self):
        corpus = generate(num_scenes=64, parts_per_scene=4, noise_scale=0.05, seed=7)
        rep = corpus.representativeness
        for view in ("image", "text"):
            scenes = corpus.views["scene", view][corpus.parent_rows]
            cos = np.array([
                np.dot(p, s) / (np.linalg.norm(p) * np.linalg.norm(s))
                for p, s in zip(corpus.views["part", view], scenes)
            ])
            rho = stats.spearmanr(cos, rep).statistic
            assert rho > 0.9, f"{view}: {rho}"

    def test_scene_separation_enforced(self):
        corpus = generate(num_scenes=16, parts_per_scene=2, seed=2,
                          min_separation=0.8)
        latents = corpus.views["scene", "latent"]
        d = np.linalg.norm(latents[:, None] - latents[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.8

    @pytest.mark.parametrize("settings", [
        dict(seed=7),
        dict(num_scenes=512, parts_per_scene=4, latent_dim=64, seed=4712),
        dict(num_scenes=200, latent_dim=3, min_separation=0.2),     # rejection-heavy
        dict(num_scenes=40, latent_dim=2, min_separation=0.15),     # raises on both sides
        dict(num_scenes=16, min_separation=-0.5),
    ], ids=["default", "train_wide", "rejections", "jammed", "negative_separation"])
    def test_corpus_bytes_match_the_reference(self, tmp_path, settings):
        assert self._outcome(generate, settings, tmp_path) == self._outcome(
            orc.generate_reference, settings, tmp_path)

    @pytest.mark.parametrize("settings, sha256", [
        (dict(seed=7), "98a3f2d29d12dc6245ed96c6aac9baae50d58f0e64dc44538d124562b970e75f"),
        (dict(num_scenes=512, parts_per_scene=4, latent_dim=64, seed=4712),
         "cfab11b7baaea6e5b2dd9d65c0afb14083bb5a648804ddcd3c2f62c64e68e967"),
    ], ids=["default", "train_wide"])
    def test_corpus_bytes_are_pinned(self, tmp_path, settings, sha256):
        path = tmp_path / "c.txt"
        save(generate(**settings), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_separation_tie_is_decided_by_the_1d_norm(self, tmp_path):
        # seed 2's first two candidates at exactly their 1-D distance: the
        # check is `distance < min_separation`, so the second one is placed,
        # though the row-wise norm reads that distance 1 ulp lower
        rng = np.random.default_rng(2)
        c0, c1 = (c / np.linalg.norm(c) for c in rng.normal(size=(2, 16)))
        tie = float(np.linalg.norm(c1 - c0))
        assert np.linalg.norm(c1 - c0[None], axis=1)[0] < tie
        settings = dict(num_scenes=4, parts_per_scene=1, latent_dim=16, seed=2,
                        min_separation=tie)
        corpus = generate(**settings)
        assert corpus.views["scene", "latent"][1].tobytes() == c1.tobytes()
        assert self._outcome(generate, settings, tmp_path) == self._outcome(
            orc.generate_reference, settings, tmp_path)

    @staticmethod
    def _outcome(generator, settings, tmp_path):
        """The saved corpus's bytes, or the message of the generation error."""
        try:
            corpus = generator(**settings)
        except GenerationError as err:
            return str(err)
        path = tmp_path / "outcome.txt"
        save(corpus, path)
        return path.read_bytes()

    def test_infeasible_separation_fails(self):
        with pytest.raises(GenerationError):
            generate(num_scenes=64, parts_per_scene=1, seed=1, min_separation=1.4)

    def test_parameter_validation(self):
        with pytest.raises(ContractViolationError):
            generate(num_scenes=1, parts_per_scene=2)
        with pytest.raises(ContractViolationError):
            generate(num_scenes=4, parts_per_scene=0)
        with pytest.raises(ContractViolationError):
            generate(num_scenes=4, parts_per_scene=1, noise_scale=-0.1)
        with pytest.raises(ContractViolationError, match="latent_dim"):
            generate(num_scenes=2, parts_per_scene=1, latent_dim=1)
        # the settings are checked where they are made, for every reader
        with pytest.raises(ContractViolationError, match="^seed -1 outside"):
            GeneratorParams(seed=-1)
        with pytest.raises(ContractViolationError, match="^noise_scale 'x' outside"):
            GeneratorParams(noise_scale="x")

    def test_representativeness_range(self):
        corpus = generate(num_scenes=32, parts_per_scene=4, seed=11)
        rep = corpus.representativeness
        assert min(rep) >= 0.2 and max(rep) <= 1.0
        # one value per part, none per scene
        assert rep.dtype == np.float64 and rep.shape == (len(corpus.ids["part"]),)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        corpus = generate(num_scenes=6, parts_per_scene=2, seed=9)
        path = tmp_path / "c.txt"
        save(corpus, path)
        loaded = load(path)
        assert loaded.params == corpus.params
        assert loaded.ids["part"] == corpus.ids["part"]
        np.testing.assert_array_equal(loaded.parent_rows, corpus.parent_rows)
        np.testing.assert_array_equal(loaded.representativeness, corpus.representativeness)
        np.testing.assert_array_equal(loaded.views["part", "latent"],
                                      corpus.views["part", "latent"])

    def test_save_load_save_is_stable(self, tmp_path):
        corpus = generate(num_scenes=5, parts_per_scene=2, seed=4)
        p1, p2 = tmp_path / "1.txt", tmp_path / "2.txt"
        save(corpus, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ContractViolationError):
            load(path)

    def test_round_trip_arrays_equal(self, tmp_path):
        corpus = generate(num_scenes=7, parts_per_scene=3, seed=12)
        path = tmp_path / "c.txt"
        save(corpus, path)
        loaded = load(path)
        assert len(loaded.ids["scene"]) == 7 and len(loaded.ids["part"]) == 21
        assert loaded.ids == corpus.ids
        assert loaded.parent_rows.tolist() == corpus.parent_rows.tolist()
        assert loaded.representativeness.tolist() == corpus.representativeness.tolist()
        assert loaded.views.keys() == corpus.views.keys()
        for (level, view), got in loaded.views.items():
            assert got.dtype == np.float64 and got.shape == (len(corpus.ids[level]), 16)
            assert got.tobytes() == corpus.views[level, view].tobytes()

    def test_round_trip_special_values_bitwise(self, tmp_path):
        corpus = generate(num_scenes=3, parts_per_scene=2, seed=5, latent_dim=6)
        special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1]
        corpus.views["scene", "latent"][1] = special
        corpus.views["part", "text"][4] = special[::-1]
        corpus.views["part", "image"][0, 2] = -0.0
        path, again = tmp_path / "c.txt", tmp_path / "again.txt"
        save(corpus, path)
        loaded = load(path)
        for key, got in loaded.views.items():
            assert got.flags.writeable
            assert got.tobytes() == corpus.views[key].tobytes()
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_integer_representativeness_resaves_as_a_float(self, tmp_path):
        path, again = tmp_path / "c.txt", tmp_path / "again.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["representativeness"] = 1
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        loaded = load(path)
        assert loaded.representativeness.dtype == np.float64
        assert loaded.representativeness[-1] == 1.0
        save(loaded, again)
        assert json.loads(again.read_text().splitlines()[-1])["representativeness"] == 1.0
        assert again.read_text() == path.read_text().replace(
            '"representativeness": 1,', '"representativeness": 1.0,')

    def test_scene_without_parts_names_its_line(self, tmp_path):
        # the total part count still matches: s000's parts belong to s001
        path = tmp_path / "c.txt"
        save(generate(num_scenes=8, parts_per_scene=2, seed=5), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line.replace('"parent": "s000"', '"parent": "s001"')
                                  for line in lines) + "\n")
        with pytest.raises(ContractViolationError) as info:
            load(path)
        assert str(info.value) == f"{path}:2: corpus scene 's000' is the parent of no part"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2), path)
        lines = path.read_text().splitlines()
        path.write_text("\n\n".join(lines) + "\n  \n")
        assert load(path).ids["part"] == ["s000.p0", "s001.p0", "s002.p0"]

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [], "empty corpus file: {path}"),
        (lambda lines: ['{"format": ', *lines[1:]], "{path}: corpus header is not JSON: "),
        (lambda lines: ['{"format": "nope"}', *lines[1:]],
         "{path}: unrecognized corpus format 'nope'"),
        (lambda lines: ['["x"]', *lines[1:]], "{path}: unrecognized corpus format None"),
        (lambda lines: [json.dumps({k: v for k, v in json.loads(lines[0]).items()
                                    if k != "seed"}), *lines[1:]],
         "{path}: corpus header lacks generator field(s) ['seed']"),
        (lambda lines: lines[:-1], "{path}: corpus file record count mismatch"),
        # one part too many (under an id of its own: a repeated id is refused first)
        (lambda lines: [*lines, lines[-1].replace('"s002.p0"', '"s002.p1"')],
         "{path}: corpus file record count mismatch"),
    ])
    def test_error_messages(self, tmp_path, edit, message):
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2), path)
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
        with pytest.raises(ContractViolationError) as info:
            load(path)
        # the header's JSON error ends with the decoder's own words
        if message.endswith(": "):
            assert str(info.value).startswith(message.format(path=path))
        else:
            assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("line, message", [
        ('{"kind": "scene", "id": "s0", "lat', "corpus record is not JSON"),
        ('{"kind": "scene"}{"kind": "scene"}', "corpus record is not JSON"),
        ('["scene"]', "needs a 'kind' of 'scene' or 'part'"),
        ('{"id": "s0"}', "needs a 'kind' of 'scene' or 'part'"),
        ('{"kind": "tree", "id": "s0"}', "needs a 'kind' of 'scene' or 'part'"),
        ('{"kind": ["scene"], "id": "s0"}', "needs a 'kind' of 'scene' or 'part'"),
        ('{"kind": "part", "id": "p", "latent": [], "image_view": [], "text_view": []}',
         "lacks field(s) ['parent', 'representativeness']"),
        # a short view, a non-numeric view, a nested view, a scalar view
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "latent": "{encode([1.0])}"}}',
         "'latent' is not the base64 bytes of 2 float64 values"),
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "image_view": "1.0, a"}}',
         "'image_view' is not the base64 bytes of 2 float64 values"),
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, '
         f'"text_view": ["{encode([1.0])}", "{encode([2.0])}"]}}',
         "'text_view' is not the base64 bytes of 2 float64 values"),
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "latent": 1.0}}',
         "'latent' is not the base64 bytes of 2 float64 values"),
        # the replaced v1 view: a list of floats
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "latent": [1.0, 2.0]}}',
         "'latent' is not the base64 bytes of 2 float64 values"),
        # not strict base64: a lost padding character, a non-ASCII character
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "text_view": "{encode([1.0, 2.0])[:-1]}"}}',
         "'text_view' is not the base64 bytes of 2 float64 values"),
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "latent": "\u00e9{encode([1.0, 2.0])[1:]}"}}',
         "'latent' is not the base64 bytes of 2 float64 values"),
        # a byte count that is not a multiple of 8, and one value too many
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "image_view": "AAAAAAAAAAAA"}}',
         "'image_view' is not the base64 bytes of 2 float64 values"),
        (f'{{"kind": "scene", "id": "s", {_VIEWS_2D}, "latent": "{encode([1.0, 2.0, 3.0])}"}}',
         "'latent' is not the base64 bytes of 2 float64 values"),
        # record fields: the id, a part's representativeness
        (f'{{"kind": "scene", "id": 7, {_VIEWS_2D}}}', "'id' is not a string"),
        (f'{{"kind": "scene", "id": null, {_VIEWS_2D}}}', "'id' is not a string"),
        (f'{{"kind": "scene", "id": "s000", {_VIEWS_2D}}}',
         "'id' 's000' is not unique in the file"),
        (f'{{"kind": "part", "id": "s000", "parent": "s000", "representativeness": 0.5, '
         f'{_VIEWS_2D}}}', "'id' 's000' is not unique in the file"),
        *[(f'{{"kind": "part", "id": "p", "parent": "s000", "representativeness": {rep}, '
           f'{_VIEWS_2D}}}', "'representativeness' is not a finite number")
          for rep in ('"high"', "null", "true", "[0.5]", "NaN", "Infinity")],
    ])
    def test_bad_record_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2, latent_dim=2), path)
        lines = path.read_text().splitlines()
        # a blank line first: the reported line number counts it
        lines[2:3] = ["", line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractViolationError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:4: ") and message in str(info.value)

    @pytest.mark.parametrize("line, message", [
        # a part's parent must name a scene of the file: here none, a part,
        # or not a string
        ('{"kind": "part", "id": "p", "parent": "nowhere", "representativeness": 0.5, VIEWS}',
         "'parent' 'nowhere' names no scene of the file"),
        ('{"kind": "part", "id": "p", "parent": "s002.p0", "representativeness": 0.5, VIEWS}',
         "'parent' 's002.p0' names no scene of the file"),
        ('{"kind": "part", "id": "p", "parent": ["s000"], "representativeness": 0.5, VIEWS}',
         "'parent' ['s000'] names no scene of the file"),
        # Python's json reads NaN and Infinity; the bytes may hold them too
        ('{"kind": "scene", "id": "s001", VIEWS, "latent": "NAN"}',
         "'latent' holds a non-finite value"),
        ('{"kind": "scene", "id": "s001", VIEWS, "image_view": "INF"}',
         "'image_view' holds a non-finite value"),
        ('{"kind": "scene", "id": "s001", VIEWS, "text_view": "-INF"}',
         "'text_view' holds a non-finite value"),
    ])
    def test_bad_record_found_after_reading_names_its_line(self, tmp_path, line, message):
        """Checks that need the whole file (a part's parent) or the decoded
        values (finiteness) still name the record's line and field."""
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2, latent_dim=2), path)
        specials = {"NAN": [1.0, np.nan], "INF": [np.inf, 2.0], "-INF": [1.0, -np.inf]}
        for name, values in specials.items():
            line = line.replace(f'"{name}"', f'"{encode(values)}"')
        lines = path.read_text().splitlines()
        # the bad record replaces scene s001 and keeps its id, or is added
        # as a part after a blank line
        if '"scene"' in line:
            lines[2:3] = ["", line.replace("VIEWS", _VIEWS_2D)]
        else:
            lines[2:2] = ["", line.replace("VIEWS", _VIEWS_2D)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractViolationError) as info:
            load(path)
        assert str(info.value) == f"{path}:4: corpus record's {message}"

    @pytest.mark.parametrize("field, value, detail", [
        ("latent_dim", 2.0, "is not an integer"), ("latent_dim", "2", "is not an integer"),
        ("latent_dim", True, "is not an integer"),
        ("latent_dim", 0, "outside its domain [2, inf)"),
        ("num_scenes", "3", "is not an integer"), ("parts_per_scene", [1], "is not an integer"),
        ("num_scenes", -3, "outside its domain [2, inf)"),
    ])
    def test_header_size_not_a_positive_integer(self, tmp_path, field, value, detail):
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2, latent_dim=2), path)
        header, *records = path.read_text().splitlines()
        header = json.loads(header)
        header[field] = value
        path.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ContractViolationError) as info:
            load(path)
        assert str(info.value) == f"{path}: corpus header's {field} {value!r} {detail}"

    @pytest.mark.parametrize("missing", [f.name for f in fields(GeneratorParams)])
    def test_missing_header_field_rejected(self, tmp_path, missing):
        path = tmp_path / "c.txt"
        save(generate(num_scenes=3, parts_per_scene=1, seed=2), path)
        header, *records = path.read_text().splitlines()
        header = json.loads(header)
        del header[missing]
        path.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ContractViolationError, match=f"'{missing}'"):
            load(path)


class TestSampleBatch:
    def test_full_batch_is_scene_permutation(self):
        corpus = generate(num_scenes=12, parts_per_scene=3, seed=1)
        idx = sample_batch(corpus, 12, [1, 0])
        assert sorted(idx.scene_rows.tolist()) == list(range(12))

    def test_rows_aligned_part_parent(self):
        corpus = generate(num_scenes=10, parts_per_scene=3, seed=2)
        idx = sample_batch(corpus, 6, [2, 5])
        for s, p in zip(idx.scene_rows, idx.part_rows):
            assert corpus.parent_rows[p] == s

    def test_reproducible_stream(self):
        corpus = generate(num_scenes=10, parts_per_scene=2, seed=3)
        a = sample_batch(corpus, 5, [3, 17])
        b = sample_batch(corpus, 5, [3, 17])
        assert np.array_equal(a.scene_rows, b.scene_rows)
        assert np.array_equal(a.part_rows, b.part_rows)
        c = sample_batch(corpus, 5, [3, 18])
        assert not (np.array_equal(a.scene_rows, c.scene_rows)
                    and np.array_equal(a.part_rows, c.part_rows))

    def test_uniform_part_frequency(self):
        corpus = generate(num_scenes=4, parts_per_scene=4, seed=6)
        counts = np.zeros(len(corpus.ids["part"]))
        draws = 10_000
        for step in range(draws):
            idx = sample_batch(corpus, 4, [9, step])
            counts[idx.part_rows] += 1
        freq = counts / draws  # each scene appears every draw;
        np.testing.assert_allclose(freq, 0.25, atol=0.02)

    def test_oversized_batch_rejected(self):
        corpus = generate(num_scenes=4, parts_per_scene=2, seed=8)
        with pytest.raises(ContractViolationError):
            sample_batch(corpus, 5, [0, 0])

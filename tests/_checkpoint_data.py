"""Test-side helpers for editing checkpoint arrays and corpus views.

A checkpoint (format 2) stores each array, and a corpus (v2) each view, as
the base64 text of its little-endian float64 bytes in C order.
``decode``/``encode`` convert between that text and a flat writable array,
so a test can change chosen entries and write the file back; ``as_format_1`` rewrites a payload the way
the replaced format 1 stored it (every array a flat list of floats).
``seeded_run``/``write_seeded_run`` make a corpus and a checkpoint of
seeded tables with no training.
"""

import base64

import numpy as np


def decode(data: str) -> np.ndarray:
    """A checkpoint array's flat values, as a writable float64 copy."""
    return np.frombuffer(base64.b64decode(data, validate=True), "<f8").copy()


def encode(values) -> str:
    """Flat values as checkpoint array text."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def reencode_bytes(data: str, edit) -> str:
    """``data`` with its raw bytes passed through ``edit`` (bytes -> bytes)."""
    return base64.b64encode(edit(base64.b64decode(data))).decode("ascii")


def as_format_1(payload: dict) -> dict:
    """``payload`` in the replaced format 1: float lists instead of text."""
    old = dict(payload, format_version=1)
    old["params"] = {name: {"shape": rec["shape"], "data": decode(rec["data"]).tolist()}
                     for name, rec in payload["params"].items()}
    for field in ("opt_m", "opt_v"):
        old[field] = {name: decode(data).tolist() for name, data in payload[field].items()}
    return old



def seeded_run(scenes: int, parts: int, seed: int):
    """A generated ``scenes`` x ``parts`` corpus and a parameter store of
    seeded tables, made with no training step, so that no change to the
    training trajectory moves them: each table is twice its corpus view
    plus seeded noise, at curvature 1.3.  Returns the corpus, the store and
    the default config at ``seed``."""
    from hypalign.losses import LAYOUT
    from hypalign.synthdata import generate
    from hypalign.trainer import TrainConfig, parameter_store

    corpus = generate(num_scenes=scenes, parts_per_scene=parts, seed=seed)
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(seed=seed)
    tables = {}
    for group, src in LAYOUT.items():
        view = corpus.views[src.level, src.modality]
        tables[group] = 2.0 * view + rng.normal(scale=0.3, size=view.shape)
    return corpus, parameter_store(tables, 1.3, cfg.loss.temps), cfg


def write_seeded_run(directory, scenes: int, parts: int, seed: int):
    """:func:`seeded_run`'s corpus and a checkpoint of its store at step 17,
    written into ``directory``; returns the two paths."""
    from hypalign.synthdata import save
    from hypalign.trainer import AdamW, save_checkpoint

    corpus, store, cfg = seeded_run(scenes, parts, seed)
    corpus_path, checkpoint = directory / "corpus.txt", directory / "checkpoint.json"
    save(corpus, corpus_path)
    save_checkpoint(checkpoint, 17, store, AdamW(store, cfg), cfg)
    return corpus_path, checkpoint

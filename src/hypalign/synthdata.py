"""Deterministic synthetic part-whole corpus.

Stands in for a grounded image-text dataset at desk scale: a set of
well-separated scene concepts, each with several part concepts whose latent
positions deviate from the scene by an amount controlled by a ground-truth
*representativeness* scalar (1 = the part is the scene, 0.2 = barely
related).  Every concept carries an image view and a text view (latent plus
independent per-modality noise); these views are the stand-in for encoder
outputs and retain the representativeness signal that evaluation correlates
against.

Serialization is JSON-lines (one header object, then one object per
concept); regenerating with the same seed reproduces the file byte for
byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, GenerationError

_FORMAT = "hypalign-corpus-v1"
_MAX_REJECTS = 10_000


@dataclass(frozen=True)
class Concept:
    """One scene or part: latent semantic position plus two noisy views."""

    id: str
    level: str                      # "scene" | "part"
    latent: np.ndarray
    image_view: np.ndarray
    text_view: np.ndarray
    parent: str | None = None      # scene id, parts only
    representativeness: float | None = None  # in [0.2, 1], parts only


@dataclass(frozen=True)
class GeneratorParams:
    num_scenes: int = 64
    parts_per_scene: int = 4
    latent_dim: int = 16
    noise_scale: float = 0.05
    spread: float = 1.0            # displacement at representativeness 0
    min_separation: float = 0.5    # minimum scene-latent distance
    seed: int = 7


@dataclass(frozen=True)
class Corpus:
    params: GeneratorParams
    scenes: list[Concept] = field(default_factory=list)
    parts: list[Concept] = field(default_factory=list)

    @property
    def num_scenes(self) -> int:
        return len(self.scenes)

    @cached_property
    def _part_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Part rows grouped by scene (corpus order within a scene), and per
        scene its group's start in that order and its part count."""
        scene = self.scene_index()
        owner = np.array([scene[p.parent] for p in self.parts], dtype=np.intp)
        counts = np.bincount(owner, minlength=self.num_scenes)
        return np.argsort(owner, kind="stable"), np.cumsum(counts) - counts, counts

    def scene_index(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.scenes)}

    def concepts(self, level: str) -> list[Concept]:
        return self.scenes if level == "scene" else self.parts


@dataclass(frozen=True)
class BatchIndices:
    """Row indices into the scene/part embedding tables for one step; row
    ``i`` pairs part ``part_rows[i]`` with its scene ``scene_rows[i]``."""

    scene_rows: np.ndarray
    part_rows: np.ndarray

    def rows(self, level: str) -> np.ndarray:
        return self.scene_rows if level == "scene" else self.part_rows


def generate(**settings) -> Corpus:
    """Build a corpus from :class:`GeneratorParams` settings given by
    keyword (the rest keep their defaults); the same settings reproduce it
    bit for bit.

    Scene latents are unit vectors kept at least ``min_separation`` apart by
    rejection (generation fails if 10^4 consecutive rejections occur).  Each
    part latent displaces its scene latent orthogonally by
    ``(1 - representativeness) * spread``, so the part-to-scene cosine is a
    strictly decreasing function of the displacement before view noise.
    """
    p = GeneratorParams(**settings)
    if p.num_scenes < 2 or p.parts_per_scene < 1:
        raise ContractViolationError("need num_scenes >= 2 and parts_per_scene >= 1")
    if p.noise_scale < 0:
        raise ContractViolationError("noise_scale must be >= 0")
    if p.latent_dim < 2:
        # a part moves off its scene along a direction orthogonal to it
        raise ContractViolationError("latent_dim must be >= 2")
    rng = np.random.default_rng(p.seed)

    scene_latents = []
    rejects = 0
    while len(scene_latents) < p.num_scenes:
        cand = rng.normal(size=p.latent_dim)
        cand /= np.linalg.norm(cand)
        if scene_latents:
            dmin = min(np.linalg.norm(cand - z) for z in scene_latents)
            if dmin < p.min_separation:
                rejects += 1
                if rejects > _MAX_REJECTS:
                    raise GenerationError(
                        f"could not place {p.num_scenes} scenes at separation "
                        f">= {p.min_separation} after {_MAX_REJECTS} rejections"
                    )
                continue
        scene_latents.append(cand)

    def views(latent):
        img = latent + p.noise_scale * rng.normal(size=p.latent_dim)
        txt = latent + p.noise_scale * rng.normal(size=p.latent_dim)
        return img, txt

    scenes, parts = [], []
    for si, z in enumerate(scene_latents):
        sid = f"s{si:03d}"
        img, txt = views(z)
        scenes.append(Concept(id=sid, level="scene", latent=z,
                              image_view=img, text_view=txt))
        for pi in range(p.parts_per_scene):
            rep = float(rng.uniform(0.2, 1.0))
            direction = rng.normal(size=p.latent_dim)
            direction -= (direction @ z) * z      # orthogonal to the scene
            direction /= np.linalg.norm(direction)
            latent = z + (1.0 - rep) * p.spread * direction
            img, txt = views(latent)
            parts.append(Concept(id=f"{sid}.p{pi}", level="part", latent=latent,
                                 image_view=img, text_view=txt, parent=sid,
                                 representativeness=rep))
    return Corpus(params=p, scenes=scenes, parts=parts)


def sample_batch(corpus: Corpus, batch_size: int, seed_stream) -> BatchIndices:
    """Draw ``batch_size`` distinct scenes and one uniform part of each.

    ``seed_stream`` is any ``default_rng``-compatible seed (the trainer uses
    ``[seed, step]``); identical streams give identical batches.
    """
    if batch_size > corpus.num_scenes:
        raise ContractViolationError(
            f"batch size {batch_size} exceeds scene count {corpus.num_scenes}"
        )
    rng = np.random.default_rng(seed_stream)
    scene_rows = rng.choice(corpus.num_scenes, size=batch_size, replace=False)
    order, starts, counts = corpus._part_groups
    part_rows = order[starts[scene_rows] + rng.integers(counts[scene_rows])]
    return BatchIndices(scene_rows=np.asarray(scene_rows, dtype=np.intp),
                        part_rows=part_rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _vec(a: np.ndarray) -> list[float]:
    return [float(x) for x in a]


def _record(c: Concept) -> dict:
    """One concept's corpus record; a part's adds its parent and its
    representativeness after the id."""
    rec = {"kind": c.level, "id": c.id}
    if c.level == "part":
        rec.update(parent=c.parent, representativeness=c.representativeness)
    rec.update(latent=_vec(c.latent), image_view=_vec(c.image_view),
               text_view=_vec(c.text_view))
    return rec


def save(corpus: Corpus, path) -> None:
    """Write the JSONL corpus file (header line, then one line per concept,
    scenes first)."""
    lines = [json.dumps({"format": _FORMAT, **asdict(corpus.params)})]
    lines += [json.dumps(_record(c)) for c in (*corpus.scenes, *corpus.parts)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> Corpus:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ContractViolationError(f"empty corpus file: {path}")
    header = json.loads(lines[0])
    if header.get("format") != _FORMAT:
        raise ContractViolationError(
            f"unrecognized corpus format {header.get('format')!r}"
        )
    names = [f.name for f in fields(GeneratorParams)]
    missing = [name for name in names if name not in header]
    if missing:
        raise ContractViolationError(f"corpus header lacks generator field(s) {missing}")
    params = GeneratorParams(**{name: header[name] for name in names})
    scenes, parts = [], []
    for line in lines[1:]:
        rec = json.loads(line)
        concept = Concept(
            id=rec["id"], level=rec["kind"],
            latent=np.asarray(rec["latent"], dtype=np.float64),
            image_view=np.asarray(rec["image_view"], dtype=np.float64),
            text_view=np.asarray(rec["text_view"], dtype=np.float64),
            parent=rec.get("parent"),
            representativeness=rec.get("representativeness"),
        )
        (scenes if rec["kind"] == "scene" else parts).append(concept)
    if len(scenes) != params.num_scenes or len(parts) != params.num_scenes * params.parts_per_scene:
        raise ContractViolationError("corpus file record count mismatch")
    return Corpus(params=params, scenes=scenes, parts=parts)

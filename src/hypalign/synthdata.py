"""Deterministic synthetic part-whole corpus.

Stands in for a grounded image-text dataset at desk scale: a set of
well-separated scene concepts, each with several part concepts whose latent
positions deviate from the scene by an amount controlled by a ground-truth
*representativeness* scalar (1 = the part is the scene, 0.2 = barely
related).  Every concept carries an image view and a text view (latent plus
independent per-modality noise); these views are the stand-in for encoder
outputs and retain the representativeness signal that evaluation correlates
against.

Serialization is JSON-lines (format ``hypalign-corpus-v2``): one header
object, then one object per concept, scenes first.  Each view vector is the
base64 text of its ``latent_dim`` little-endian float64 values (the
encoding of :mod:`hypalign.floatbytes`), so a file loads back bit for bit
and regenerating with the same seed reproduces it byte for byte.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import floatbytes
from .errors import ContractViolationError, DomainError, GenerationError, check_domains

_FORMAT = "hypalign-corpus-v2"
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

    def __post_init__(self):
        # a corpus header is JSON, where 1.5 or true can stand in any field:
        # refuse what no generator run writes
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise DomainError(f.name, f"{value!r} is not an integer")
            if isinstance(value, bool):
                raise DomainError(f.name, f"{value!r} is not a real number")
        check_domains(self, _GENERATOR_DOMAINS)


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


_GENERATOR_DOMAINS = {
    "num_scenes": "[2, inf)", "parts_per_scene": "[1, inf)",
    # a part moves off its scene along a direction orthogonal to it
    "latent_dim": "[2, inf)",
    "noise_scale": "[0, inf)", "spread": "(-inf, inf)", "min_separation": "(-inf, inf)",
    "seed": "[0, inf)",
}


def generate(**settings) -> Corpus:
    """Build a corpus from :class:`GeneratorParams` settings given by
    keyword (the rest keep their defaults); the same settings reproduce it
    bit for bit.

    Scene latents are unit vectors kept at least ``min_separation`` apart by
    rejection (generation fails once more than 10^4 candidates in total have
    been rejected).  Each part latent displaces its scene latent orthogonally
    by ``(1 - representativeness) * spread``, so the part-to-scene cosine is
    a strictly decreasing function of the displacement before view noise.
    """
    p = GeneratorParams(**settings)
    rng = np.random.default_rng(p.seed)

    # A placement is decided by the 1-D norm of each difference (a BLAS dot).
    # The row-wise norm sums the same squares in another order.  Any order
    # is within gamma_n = n*u/(1 - n*u) of the exact sum (n = latent_dim,
    # u = eps/2), give or take n * 2^-1075 where squares underflow, and the
    # square root adds u; so the two norms differ by less than
    # `rel * d + floor`.  A row-wise minimum that close to `min_separation`
    # is decided by the 1-D norms.
    rel = (p.latent_dim + 2) * np.finfo(float).eps
    floor = 2 * np.sqrt(p.latent_dim * np.finfo(float).smallest_subnormal)
    scene_latents = np.empty((p.num_scenes, p.latent_dim))
    placed = rejects = 0
    while placed < p.num_scenes:
        cand = rng.normal(size=p.latent_dim)
        cand /= np.linalg.norm(cand)
        if placed:
            dmin = np.linalg.norm(cand - scene_latents[:placed], axis=1).min()
            if abs(dmin - p.min_separation) <= rel * dmin + floor:
                dmin = min(np.linalg.norm(cand - z) for z in scene_latents[:placed])
            if dmin < p.min_separation:
                rejects += 1
                if rejects > _MAX_REJECTS:
                    raise GenerationError(
                        f"could not place {p.num_scenes} scenes at separation "
                        f">= {p.min_separation} after {_MAX_REJECTS} rejections"
                    )
                continue
        scene_latents[placed] = cand
        placed += 1

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

def _record(c: Concept) -> dict:
    """One concept's corpus record; a part's adds its parent and its
    representativeness after the id."""
    rec = {"kind": c.level, "id": c.id}
    if c.level == "part":
        rec.update(parent=c.parent, representativeness=c.representativeness)
    rec.update(latent=floatbytes.encode(c.latent), image_view=floatbytes.encode(c.image_view),
               text_view=floatbytes.encode(c.text_view))
    return rec


def save(corpus: Corpus, path) -> None:
    """Write the JSONL corpus file (header line, then one line per concept,
    scenes first)."""
    lines = [json.dumps({"format": _FORMAT, **asdict(corpus.params)})]
    lines += [json.dumps(_record(c)) for c in (*corpus.scenes, *corpus.parts)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_VIEWS = ("latent", "image_view", "text_view")
_RECORD_FIELDS = {"scene": frozenset(("kind", "id", *_VIEWS)),
                  "part": frozenset(("kind", "id", "parent", "representativeness", *_VIEWS))}


def load(path) -> Corpus:
    """Read a corpus file written by :func:`save`.

    Each view field becomes one ``(N, latent_dim)`` array whose rows the
    concepts hold.  A malformed file raises ``ContractViolationError``
    naming the file, and for a bad record its 1-based line and field.
    """
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ContractViolationError(f"{path}: corpus file is not text: {err}") from None
    # (line number, line) of each non-blank line, made as they are read
    lines = ((lineno, line) for lineno, line in enumerate(text.splitlines(), 1)
             if line.strip())
    first = next(lines, None)
    if first is None:
        raise ContractViolationError(f"empty corpus file: {path}")
    try:
        header = json.loads(first[1])
    except ValueError as err:  # not JSON, or an integer past the digit limit
        raise ContractViolationError(f"{path}: corpus header is not JSON: {err}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != _FORMAT:
        raise ContractViolationError(f"{path}: unrecognized corpus format {fmt!r}")
    names = [f.name for f in fields(GeneratorParams)]
    missing = [name for name in names if name not in header]
    if missing:
        raise ContractViolationError(f"{path}: corpus header lacks generator field(s) {missing}")
    # the sizes the records are read and counted by
    sizes = [name for name in ("num_scenes", "parts_per_scene", "latent_dim")
             if type(header[name]) is not int or header[name] < 1]
    if sizes:
        raise ContractViolationError(
            f"{path}: corpus header field(s) {sizes} not positive integers")
    try:
        params = GeneratorParams(**{name: header[name] for name in names})
    except DomainError as err:
        raise ContractViolationError(f"{path}: corpus header's {err}") from None
    dim = params.latent_dim
    # per record: its line, parent and representativeness in flat lists, its
    # id and kind in `kind_of`, and per view its raw bytes (which the garbage
    # collector does not track); nothing else made per record outlives its line
    linenos, parents, reps = [], [], []
    chunks = {name: [] for name in _VIEWS}
    kind_of = {}                # id -> kind, in file order
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except ValueError as err:  # not JSON, or an integer past the digit limit
            raise ContractViolationError(f"{where}: corpus record is not JSON: {err}") from None
        if not isinstance(rec, dict) or rec.get("kind") not in ("scene", "part"):
            raise ContractViolationError(
                f"{where}: corpus record needs a 'kind' of 'scene' or 'part'")
        kind = rec["kind"]
        if not rec.keys() >= _RECORD_FIELDS[kind]:
            missing = sorted(_RECORD_FIELDS[kind] - rec.keys())
            raise ContractViolationError(f"{where}: corpus record lacks field(s) {missing}")
        cid = rec["id"]
        if not isinstance(cid, str):
            raise ContractViolationError(f"{where}: corpus record's 'id' is not a string")
        if cid in kind_of:
            raise ContractViolationError(
                f"{where}: corpus record's 'id' {cid!r} is not unique in the file")
        kind_of[cid] = kind
        parent = rep = None
        if kind == "part":
            parent, rep = rec["parent"], rec["representativeness"]
            # compared, not converted: an integer past float's range is refused too
            if type(rep) not in (int, float) or not abs(rep) <= sys.float_info.max:
                raise ContractViolationError(
                    f"{where}: corpus record's 'representativeness' is not a finite number")
        for name in _VIEWS:
            raw = floatbytes.decode(rec[name], dim)
            if raw is None:
                raise ContractViolationError(
                    f"{where}: corpus record's {name!r} is not the base64 bytes of "
                    f"{dim} float64 values")
            chunks[name].append(raw)
        linenos.append(lineno)
        parents.append(parent)
        reps.append(rep)
    for lineno, kind, parent in zip(linenos, kind_of.values(), parents):
        if kind == "part" and not (isinstance(parent, str) and kind_of.get(parent) == "scene"):
            raise ContractViolationError(
                f"{path}:{lineno}: corpus record's 'parent' {parent!r} names no scene of the file")
    views = {}
    for name, chunk in chunks.items():
        table = np.frombuffer(bytearray().join(chunk), "<f8").reshape(len(linenos), dim)
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            raise ContractViolationError(
                f"{path}:{linenos[int(np.argmin(finite))]}: corpus record's {name!r} "
                "holds a non-finite value")
        views[name] = table
    scenes, parts = [], []
    for (cid, kind), latent, image_view, text_view, parent, rep in zip(
            kind_of.items(), views["latent"], views["image_view"], views["text_view"],
            parents, reps):
        concept = Concept(id=cid, level=kind, latent=latent, image_view=image_view,
                          text_view=text_view, parent=parent, representativeness=rep)
        (scenes if kind == "scene" else parts).append(concept)
    if len(scenes) != params.num_scenes or len(parts) != params.num_scenes * params.parts_per_scene:
        raise ContractViolationError(f"{path}: corpus file record count mismatch")
    return Corpus(params=params, scenes=scenes, parts=parts)

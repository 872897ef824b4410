"""Deterministic synthetic part-whole corpus.

Stands in for a grounded image-text dataset at desk scale: a set of
well-separated scene concepts, each with several part concepts whose latent
positions deviate from the scene by an amount controlled by a ground-truth
*representativeness* scalar (1 = the part is the scene, 0.2 = barely
related).  Every concept carries an image view and a text view (latent plus
independent per-modality noise); these views are the stand-in for encoder
outputs and retain the representativeness signal that evaluation correlates
against.

A :class:`Corpus` holds its concepts as tables, the way its readers index
them by row: per level (``"scene"``, ``"part"``) the ids in record order
and one ``(N, latent_dim)`` float64 table per view (``"latent"``,
``"image"``, ``"text"``), and per part its scene's row and its
representativeness, each one array.

Serialization is JSON-lines (format ``hypalign-corpus-v2``): one header
object, then one object per concept, scenes first.  Each view vector is the
base64 text of its ``latent_dim`` little-endian float64 values (the
encoding of :mod:`hypalign.floatbytes`), so a file loads back bit for bit
and regenerating with the same seed reproduces it byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import floatbytes
from .errors import ContractViolationError, DomainError, GenerationError, check_domains

_FORMAT = "hypalign-corpus-v2"
_MAX_REJECTS = 10_000

LEVELS = ("scene", "part")
# each view's field in a corpus record, in record order
_FIELDS = {"latent": "latent", "image": "image_view", "text": "text_view"}
VIEWS = tuple(_FIELDS)


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
        # check_domains refuses what no generator run writes
        check_domains(self, _GENERATOR_DOMAINS)


@dataclass(frozen=True)
class Corpus:
    """The corpus's tables.  ``ids[level]`` lists a level's ids in record
    order, and row ``i`` of ``views[level, view]``, a ``(len(ids[level]),
    latent_dim)`` float64 table, is view ``view`` of ``ids[level][i]``.  Part
    ``i``'s scene is scene row ``parent_rows[i]`` and its ground truth is
    ``representativeness[i]`` (float64, in [0.2, 1] as generated)."""

    params: GeneratorParams
    ids: dict[str, list[str]]
    views: dict[tuple[str, str], np.ndarray]
    parent_rows: np.ndarray
    representativeness: np.ndarray

    @property
    def num_scenes(self) -> int:
        return len(self.ids["scene"])

    @cached_property
    def _part_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Part rows grouped by scene (corpus order within a scene), and per
        scene its group's start in that order and its part count."""
        counts = np.bincount(self.parent_rows, minlength=self.num_scenes)
        return (np.argsort(self.parent_rows, kind="stable"), np.cumsum(counts) - counts,
                counts)


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
    reps = np.empty(p.num_scenes * p.parts_per_scene)
    views = {(level, view): np.empty((n, p.latent_dim))
             for level, n in zip(LEVELS, (p.num_scenes, len(reps))) for view in VIEWS}

    # A placement is decided by the 1-D norm of each difference (a BLAS dot).
    # The row-wise norm sums the same squares in another order.  Any order
    # is within gamma_n = n*u/(1 - n*u) of the exact sum (n = latent_dim,
    # u = eps/2), give or take n * 2^-1075 where squares underflow, and the
    # square root adds u; so the two norms differ by less than
    # `rel * d + floor`.  A row-wise minimum that close to `min_separation`
    # is decided by the 1-D norms.
    rel = (p.latent_dim + 2) * np.finfo(float).eps
    floor = 2 * np.sqrt(p.latent_dim * np.finfo(float).smallest_subnormal)
    scene_latents = views["scene", "latent"]
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

    def noisy_views(level, row):
        latent = views[level, "latent"][row]
        views[level, "image"][row] = latent + p.noise_scale * rng.normal(size=p.latent_dim)
        views[level, "text"][row] = latent + p.noise_scale * rng.normal(size=p.latent_dim)

    for si, z in enumerate(scene_latents):
        noisy_views("scene", si)
        for row in range(si * p.parts_per_scene, (si + 1) * p.parts_per_scene):
            reps[row] = rep = rng.uniform(0.2, 1.0)
            direction = rng.normal(size=p.latent_dim)
            direction -= (direction @ z) * z      # orthogonal to the scene
            direction /= np.linalg.norm(direction)
            views["part", "latent"][row] = z + (1.0 - rep) * p.spread * direction
            noisy_views("part", row)
    scene_ids = [f"s{si:03d}" for si in range(p.num_scenes)]
    part_ids = [f"{sid}.p{pi}" for sid in scene_ids for pi in range(p.parts_per_scene)]
    return Corpus(params=p, ids={"scene": scene_ids, "part": part_ids}, views=views,
                  parent_rows=np.repeat(np.arange(p.num_scenes), p.parts_per_scene),
                  representativeness=reps)


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

def save(corpus: Corpus, path) -> None:
    """Write the JSONL corpus file (header line, then one line per concept,
    scenes first); a part's record adds its parent and its
    representativeness after the id."""
    scene_ids = corpus.ids["scene"]
    records = [{"kind": "scene", "id": sid} for sid in scene_ids]
    records += [{"kind": "part", "id": pid, "parent": scene_ids[row], "representativeness": rep}
                for pid, row, rep in zip(corpus.ids["part"], corpus.parent_rows.tolist(),
                                         corpus.representativeness.tolist())]
    rows = (row for level in LEVELS for row in zip(*(corpus.views[level, v] for v in VIEWS)))
    lines = [json.dumps({"format": _FORMAT, **asdict(corpus.params)})]
    for rec, views in zip(records, rows):
        rec.update(zip(_FIELDS.values(), map(floatbytes.encode, views)))
        lines.append(json.dumps(rec))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_RECORD_FIELDS = {"scene": frozenset(("kind", "id", *_FIELDS.values()))}
_RECORD_FIELDS["part"] = _RECORD_FIELDS["scene"] | {"parent", "representativeness"}


def load(path) -> Corpus:
    """Read a corpus file written by :func:`save`.

    Each record's view bytes join its level's tables as the file is read,
    and each part's parent becomes its scene's row.  A malformed file
    raises ``ContractViolationError`` naming the file, and for a bad record
    its 1-based line and field; so does a scene that no part names.
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
    try:
        params = GeneratorParams(**{name: header[name] for name in names})
    except DomainError as err:
        raise ContractViolationError(f"{path}: corpus header's {err}") from None
    dim = params.latent_dim
    # per level its records' ids and lines, and per view their raw bytes
    # (which the garbage collector does not track); per part its parent and
    # representativeness.  Nothing else made per record outlives its line.
    ids = {level: [] for level in LEVELS}
    linenos = {level: [] for level in LEVELS}
    chunks = {(level, view): [] for level in LEVELS for view in VIEWS}
    parents, reps = [], []
    seen = set()                # every id of the file
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except ValueError as err:  # not JSON, or an integer past the digit limit
            raise ContractViolationError(f"{where}: corpus record is not JSON: {err}") from None
        if not isinstance(rec, dict) or rec.get("kind") not in LEVELS:
            raise ContractViolationError(
                f"{where}: corpus record needs a 'kind' of 'scene' or 'part'")
        kind = rec["kind"]
        if not rec.keys() >= _RECORD_FIELDS[kind]:
            missing = sorted(_RECORD_FIELDS[kind] - rec.keys())
            raise ContractViolationError(f"{where}: corpus record lacks field(s) {missing}")
        cid = rec["id"]
        if not isinstance(cid, str):
            raise ContractViolationError(f"{where}: corpus record's 'id' is not a string")
        if cid in seen:
            raise ContractViolationError(
                f"{where}: corpus record's 'id' {cid!r} is not unique in the file")
        seen.add(cid)
        if kind == "part":
            rep = rec["representativeness"]
            # compared, not converted: an integer past float's range is refused too
            if type(rep) not in (int, float) or not abs(rep) <= sys.float_info.max:
                raise ContractViolationError(
                    f"{where}: corpus record's 'representativeness' is not a finite number")
            parents.append(rec["parent"])
            reps.append(rep)
        for view, name in _FIELDS.items():
            raw = floatbytes.decode(rec[name], dim)
            if raw is None:
                raise ContractViolationError(
                    f"{where}: corpus record's {name!r} is not the base64 bytes of "
                    f"{dim} float64 values")
            chunks[kind, view].append(raw)
        ids[kind].append(cid)
        linenos[kind].append(lineno)
    scene_rows = {sid: row for row, sid in enumerate(ids["scene"])}
    parent_rows = np.array([scene_rows.get(parent, -1) if isinstance(parent, str) else -1
                            for parent in parents], dtype=np.intp)
    if (parent_rows < 0).any():
        i = int(np.argmin(parent_rows))
        raise ContractViolationError(
            f"{path}:{linenos['part'][i]}: corpus record's 'parent' {parents[i]!r} "
            "names no scene of the file")
    views = {key: np.frombuffer(bytearray().join(chunk), "<f8").reshape(-1, dim)
             for key, chunk in chunks.items()}
    for view, name in _FIELDS.items():
        # per level, the line of its first row holding a non-finite value
        bad = [linenos[level][row] for level in LEVELS
               for row in np.flatnonzero(~np.isfinite(views[level, view]).all(axis=1))[:1]]
        if bad:
            raise ContractViolationError(
                f"{path}:{min(bad)}: corpus record's {name!r} holds a non-finite value")
    if (len(ids["scene"]) != params.num_scenes
            or len(ids["part"]) != params.num_scenes * params.parts_per_scene):
        raise ContractViolationError(f"{path}: corpus file record count mismatch")
    counts = np.bincount(parent_rows, minlength=params.num_scenes)
    if not counts.all():
        row = int(np.argmin(counts))
        raise ContractViolationError(
            f"{path}:{linenos['scene'][row]}: corpus scene {ids['scene'][row]!r} "
            "is the parent of no part")
    return Corpus(params=params, ids=ids, views=views, parent_rows=parent_rows,
                  representativeness=np.array(reps, dtype=np.float64))

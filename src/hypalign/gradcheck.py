"""Finite-difference verification of the gradient engine, on the graph that
trains.

``run_check_grads`` builds the training objective (``total_loss``) once per
evaluation and checks each component of its report, and the total, as a
root of that one graph: central differences are compared against the tape
gradient of every root for every parameter class, on a seeded
configuration verified to sit away from the documented kinks (coincident
points for acosh, the hinge boundary, and aperture saturation) by a 1e-3
guard band.  A parameter that reaches a root only through a stop-gradient
is asserted the other way around: the tape gradient must be exactly zero
while the finite difference is not.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, value_of
from .entailment import aperture, exterior_angle
from .errors import ContractViolationError, NumericalConsistencyError
# beside the batch layout, LossConfig and total_loss, the per-term builders are
# imported only for the benchmark tracer (perfbench/tracer.py), which patches
# them here by name
from .losses import (APEXES, DISTANCE_PAIRS, GROUPS, MEMBERS, LossConfig, calibration,
                     contrastive, contrastive_total, entail_hinge, entail_leaky,
                     entailment_etas, entailment_total, total_loss)
from .manifold import Manifold, lift
from .synthdata import BatchIndices
from .trainer import loss_config_with_vars, materialize_batch, parameter_store

GUARD_BAND = 1e-3
_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckResult:
    loss: str
    param: str
    mode: str               # "match" | "zero_tape"
    max_rel_err: float      # match mode; nan in zero_tape mode
    max_tape_abs: float
    max_fd_abs: float
    n_coords: int
    passed: bool


def finite_diff_check(f, store: ParameterStore, *, step: float = 1e-5,
                      tolerance: float = 1e-4, max_coords: int = 200,
                      seed: int = 0) -> list[CheckResult]:
    """Compare the tape gradients of the named scalar roots ``f(store)``
    returns (a mapping of name to root) against central finite differences,
    sub-sampling at most ``max_coords`` coordinates per parameter; one
    result per root and parameter.

    One recorded forward gives every root's tape gradient.  The differences
    are taken on the surrogate objective whose gradient the tape computes:
    stop-gradient values are recorded at the base point and replayed during
    the perturbed evaluations, so a stopped factor contributes its value but
    no derivative (exactly the tape semantics); each evaluation gives every
    root.  Relative error uses the floor ``max(|fd|, |tape|, 1e-6)`` so
    agreeing near-zero gradients pass.  A parameter that reaches a root only
    through a stop-gradient is checked the other way around for that root:
    an exactly-zero tape gradient alongside a nonzero *unfrozen* finite
    difference (the value does move, the gradient must not), which costs
    that parameter one more evaluation per perturbation.
    """
    if not (1e-7 <= step <= 1e-3):
        raise ContractViolationError(f"finite-difference step {step} out of range")
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ContractViolationError(f"tolerance {tolerance} must be positive and finite")
    if max_coords < 1:
        raise ContractViolationError(f"max_coords {max_coords} must be at least 1")
    params = store.as_dict()
    with ad.record_stop_gradients() as rec:
        roots = f(store)
    names = list(roots)
    tapes = {r: ad.gradients(roots[r], params) for r in names}
    zero_tape = set()
    for r in names:
        behind = rec.behind_stops(roots[r])
        zero_tape.update((r, p) for p, var in params.items() if id(var) in behind)
    rng = np.random.default_rng(seed)

    def evaluate(frozen: bool) -> np.ndarray:
        with ad.replay_stop_gradients(rec.values) if frozen else nullcontext():
            out = f(store)
        return np.array([float(value_of(out[r])) for r in names])

    def central(flat: np.ndarray, c, frozen: bool) -> np.ndarray:
        original = flat[c]
        flat[c] = original + step
        f_plus = evaluate(frozen)
        flat[c] = original - step
        f_minus = evaluate(frozen)
        flat[c] = original
        return (f_plus - f_minus) / (2.0 * step)

    sweeps = {}
    for name, var in params.items():
        flat = var.value.ravel()
        size = flat.size
        if size <= max_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords, replace=False)
        shape = (len(coords), len(names))
        frozen = np.array([central(flat, c, True) for c in coords]).reshape(shape)
        raw = (np.array([central(flat, c, False) for c in coords]).reshape(shape)
               if any((r, name) in zero_tape for r in names) else None)
        sweeps[name] = (coords, frozen, raw)

    results = []
    for j, root in enumerate(names):
        for name, (coords, frozen, raw) in sweeps.items():
            tape_flat = tapes[root][name].ravel()
            max_tape = float(np.max(np.abs(tape_flat), initial=0.0))
            if (root, name) in zero_tape:
                max_fd = float(np.max(np.abs(raw[:, j]), initial=0.0))
                results.append(CheckResult(root, name, "zero_tape", float("nan"),
                                           max_tape, max_fd, len(coords),
                                           max_tape == 0.0 and max_fd > 1e-8))
                continue
            fd, tape = frozen[:, j], tape_flat[coords]
            rel = np.abs(fd - tape) / np.maximum(np.maximum(np.abs(fd), np.abs(tape)),
                                                 _REL_FLOOR)
            max_rel = float(np.max(rel, initial=0.0))
            results.append(CheckResult(root, name, "match", max_rel, max_tape,
                                       float(np.max(np.abs(fd), initial=0.0)),
                                       len(coords), max_rel < tolerance))
    return results


# ---------------------------------------------------------------------------
# the seeded check problem
# ---------------------------------------------------------------------------

def build_check_problem(seed: int = 1):
    """Seeded store, batch indices and loss config for gradient checking
    (6 rows of dimension 8); raises if the configuration lands within the
    kink guard band."""
    batch_size, dim = 6, 8
    rng = np.random.default_rng([seed, 0xC4EC])
    cfg = LossConfig()
    store = parameter_store({group: rng.normal(size=(batch_size, dim)) * 1.2
                             for group in GROUPS}, 1.3, cfg.temps)
    idx = BatchIndices(scene_rows=np.arange(batch_size),
                       part_rows=np.arange(batch_size))
    _assert_kink_margins(store, idx, cfg)
    return store, idx, cfg


def _assert_kink_margins(store: ParameterStore, idx: BatchIndices,
                         cfg: LossConfig) -> None:
    """Raise if the problem lies within the guard band of a kink of the
    objective's terms: the four groups are lifted as one stack, as training
    lifts them, and read through the objective's own entailment stack and
    distance pairs."""
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa)
    batch = materialize_batch(store, idx)
    points = lift(np.stack([value_of(getattr(batch, g)) for g in GROUPS]), manifold)
    cone = cfg.cone
    apex = points.groups(APEXES)
    phi = value_of(exterior_angle(apex, points.groups(MEMBERS), manifold))
    omega = value_of(aperture(apex, cone.aperture_k, manifold))
    apex_norm = np.linalg.norm(value_of(apex.space), axis=-1)
    asin_arg = 2.0 * cone.aperture_k / (np.sqrt(kappa) * apex_norm)
    # hinge boundary, acos endpoints, aperture saturation
    margins = [np.abs(phi - entailment_etas(cone) * omega),
               1.0 - np.abs(np.cos(phi)), np.abs(1.0 - asin_arg)]
    # coincident-point (acosh) margin for every distance matrix
    for a, b in DISTANCE_PAIRS:
        pa, pb = points.groups(a), points.groups(b)
        inner = (value_of(pa.space) @ value_of(pb.space).T
                 - np.outer(value_of(pa.time), value_of(pb.time)))
        margins.append(-kappa * inner - 1.0)
    margin = min(np.min(x) for x in margins)
    if margin < GUARD_BAND:
        raise NumericalConsistencyError(
            f"gradient-check configuration within {GUARD_BAND} of a kink "
            f"(margin {margin:.2e}); choose another seed"
        )


def run_check_grads(seed: int = 1, *, step: float = 1e-5,
                    tolerance: float = 1e-4, max_coords: int = 200):
    """Check every component of the ``total_loss`` report, and the total,
    for every parameter, as roots of the one graph training differentiates;
    returns (results, all_passed)."""
    store, idx, cfg = build_check_problem(seed)

    def roots(s: ParameterStore) -> dict:
        report = total_loss(materialize_batch(s, idx), loss_config_with_vars(cfg, s),
                            Manifold(s["kappa"]))
        return {**report.components, "total_loss": report.total}

    results = finite_diff_check(roots, store, step=step, tolerance=tolerance,
                                max_coords=max_coords, seed=seed)
    return results, all(r.passed for r in results)


def format_results(results: list[CheckResult]) -> str:
    width = max([len("loss"), *(len(r.loss) for r in results)]) + 2
    lines = [f"{'loss':<{width}}{'param':<18}{'mode':<10}{'max_rel_err':<14}"
             f"{'tape_max':<12}{'fd_max':<12}{'coords':<8}{'result'}"]
    for r in results:
        rel = "-" if np.isnan(r.max_rel_err) else f"{r.max_rel_err:.3e}"
        lines.append(
            f"{r.loss:<{width}}{r.param:<18}{r.mode:<10}{rel:<14}"
            f"{r.max_tape_abs:<12.3e}{r.max_fd_abs:<12.3e}{r.n_coords:<8}"
            f"{'ok' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines)

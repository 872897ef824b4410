"""Finite-difference verification of the gradient engine.

Central differences are compared against tape gradients for every loss and
every parameter class, on a seeded configuration verified to sit away from
the documented kinks (coincident points for acosh, the hinge boundary, and
aperture saturation) by a 1e-3 guard band.  Paths that flow only through a
stop-gradient are asserted the other way around: the tape gradient must be
exactly zero while the finite difference is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, value_of
from .entailment import aperture, exterior_angle
from .errors import NumericalConsistencyError
from .losses import (
    LossConfig,
    calibration,
    contrastive,
    contrastive_total,
    entail_hinge,
    entail_leaky,
    entailment_total,
    total_loss,
)
from .manifold import Manifold, lift
from .synthdata import BatchIndices
from .trainer import loss_config_with_vars, materialize_batch

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
                      seed: int = 0, zero_tape_params: tuple = (),
                      loss_name: str = "loss") -> list[CheckResult]:
    """Compare tape gradients of the scalar ``f(store)`` against central
    finite differences, sub-sampling at most ``max_coords`` coordinates per
    parameter.

    The differences are taken on the surrogate objective whose gradient the
    tape computes: stop-gradient values are recorded at the base point and
    replayed during the perturbed evaluations, so a stopped factor
    contributes its value but no derivative (exactly the tape semantics).
    Relative error uses the floor ``max(|fd|, |tape|, 1e-6)`` so agreeing
    near-zero gradients pass.  Parameters in ``zero_tape_params`` are
    reached only through a stop-gradient: they additionally assert an
    exactly-zero tape gradient alongside a nonzero *unfrozen* finite
    difference (the value does move, the gradient must not).
    """
    if not (1e-7 <= step <= 1e-3):
        raise NumericalConsistencyError(f"finite-difference step {step} out of range")
    with ad.record_stop_gradients() as rec:
        tape = ad.gradients(f(store), store.as_dict())
    rng = np.random.default_rng(seed)

    def eval_frozen() -> float:
        with ad.replay_stop_gradients(rec.values):
            return float(value_of(f(store)))

    def eval_raw() -> float:
        return float(value_of(f(store)))

    results = []
    for name, var in store.items():
        flat = var.value.ravel()
        size = flat.size
        if size <= max_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords, replace=False)
        tape_flat = tape[name].ravel()
        zero_mode = name in zero_tape_params
        fd_eval = eval_raw if zero_mode else eval_frozen
        max_rel = 0.0
        max_fd = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            f_plus = fd_eval()
            flat[c] = original - step
            f_minus = fd_eval()
            flat[c] = original
            fd = (f_plus - f_minus) / (2.0 * step)
            max_fd = max(max_fd, abs(fd))
            rel = abs(fd - tape_flat[c]) / max(abs(fd), abs(tape_flat[c]), _REL_FLOOR)
            max_rel = max(max_rel, rel)
        max_tape = float(np.max(np.abs(tape_flat))) if size else 0.0
        if zero_mode:
            passed = max_tape == 0.0 and max_fd > 1e-8
            results.append(CheckResult(loss_name, name, "zero_tape", float("nan"),
                                       max_tape, max_fd, len(coords), passed))
        else:
            results.append(CheckResult(loss_name, name, "match", max_rel,
                                       max_tape, max_fd, len(coords),
                                       max_rel < tolerance))
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
    store = ParameterStore()
    for name in ("table_scene_img", "table_scene_txt",
                 "table_part_img", "table_part_txt"):
        store.register(name, rng.normal(size=(batch_size, dim)) * 1.2)
    store.register("kappa", 1.3)
    store.register("tau_g", 0.07)
    store.register("tau_l", 0.07)
    store.register("tau_gl", 0.06)
    store.register("c_img", 1.0 / np.sqrt(dim))
    store.register("c_txt", 1.0 / np.sqrt(dim))
    idx = BatchIndices(scene_rows=np.arange(batch_size),
                       part_rows=np.arange(batch_size))
    cfg = LossConfig()
    _assert_kink_margins(store, idx, cfg)
    return store, idx, cfg


def _assert_kink_margins(store: ParameterStore, idx: BatchIndices,
                         cfg: LossConfig) -> None:
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa)
    batch = materialize_batch(store, idx)
    points = {
        name: lift(value_of(getattr(batch, name)), manifold)
        for name in ("whole_image", "whole_text", "part_image", "part_text")
    }
    margin = np.inf
    pairs = [
        ("part_text", "part_image", cfg.cone.eta_inter),
        ("whole_text", "whole_image", cfg.cone.eta_inter),
        ("part_text", "whole_text", cfg.cone.eta_intra),
        ("part_image", "whole_image", cfg.cone.eta_intra),
    ]
    for apex, member, eta in pairs:
        phi = value_of(exterior_angle(points[apex], points[member], manifold))
        omega = value_of(aperture(points[apex], cfg.cone.aperture_k, manifold))
        # hinge boundary, acos endpoints, aperture saturation
        margin = min(margin, np.min(np.abs(phi - eta * omega)))
        margin = min(margin, np.min(1.0 - np.abs(np.cos(phi))))
        apex_norm = np.linalg.norm(value_of(points[apex].space), axis=-1)
        asin_arg = 2.0 * cfg.cone.aperture_k / (np.sqrt(kappa) * apex_norm)
        margin = min(margin, np.min(np.abs(1.0 - asin_arg)))
    # coincident-point (acosh) margin for every contrastive pairing
    for a, t in (("whole_image", "whole_text"), ("part_image", "part_text"),
                 ("part_image", "whole_text"), ("part_text", "whole_image")):
        pa, pt = points[a], points[t]
        inner = (value_of(pa.space) @ value_of(pt.space).T
                 - np.outer(value_of(pa.time), value_of(pt.time)))
        margin = min(margin, np.min(-kappa * inner - 1.0))
    if margin < GUARD_BAND:
        raise NumericalConsistencyError(
            f"gradient-check configuration within {GUARD_BAND} of a kink "
            f"(margin {margin:.2e}); choose another seed"
        )


def _loss_functions(idx: BatchIndices, cfg: LossConfig) -> dict:
    """Scalar loss builders keyed by name, each a function of the store,
    with the parameters expected to be blocked by stop-gradient."""

    def pair(store):
        return materialize_batch(store, idx), Manifold(store["kappa"])

    def f_contrastive(store):
        batch, m = pair(store)
        return contrastive(batch.whole_image, batch.whole_text, store["tau_g"], m)

    def f_contrastive_total(store):
        batch, m = pair(store)
        live = loss_config_with_vars(cfg, store)
        return contrastive_total(batch, live.temps, m)

    def f_hinge(store):
        batch, m = pair(store)
        return ad.reduce_sum(entail_hinge(
            lift(batch.part_text, m), lift(batch.whole_text, m),
            cfg.cone.eta_intra, cfg.cone, m))

    def f_leaky(store):
        batch, m = pair(store)
        return ad.reduce_sum(entail_leaky(
            lift(batch.part_text, m), lift(batch.whole_text, m),
            cfg.cone.eta_intra, cfg.cone, cfg.alpha, m))

    def f_calibration(store):
        batch, m = pair(store)
        return calibration(batch.part_text, batch.whole_text,
                           cfg.cone.eta_intra, cfg.cone, cfg.alpha, m,
                           entropy_sign=cfg.entropy_sign)

    def f_entailment_total(store):
        batch, m = pair(store)
        return entailment_total(batch, loss_config_with_vars(cfg, store), m)

    def f_total(store):
        batch, m = pair(store)
        return total_loss(batch, loss_config_with_vars(cfg, store), m).total

    return {
        "contrastive": (f_contrastive, ()),
        "contrastive_total": (f_contrastive_total, ()),
        "entail_hinge": (f_hinge, ()),
        "entail_leaky": (f_leaky, ()),
        # whole-text rows and curvature reach the calibration value only
        # through the stopped entailment factor
        "calibration": (f_calibration, ("table_scene_txt", "kappa")),
        "entailment_total": (f_entailment_total, ()),
        "total_loss": (f_total, ()),
    }


def run_check_grads(seed: int = 1, *, step: float = 1e-5,
                    tolerance: float = 1e-4, max_coords: int = 200):
    """Run the full per-loss, per-parameter check; returns (results,
    all_passed)."""
    store, idx, cfg = build_check_problem(seed)
    results: list[CheckResult] = []
    for name, (fn, zero_params) in _loss_functions(idx, cfg).items():
        results.extend(finite_diff_check(
            fn, store, step=step, tolerance=tolerance, max_coords=max_coords,
            seed=seed, zero_tape_params=zero_params, loss_name=name,
        ))
    return results, all(r.passed for r in results)


def format_results(results: list[CheckResult]) -> str:
    lines = [f"{'loss':<20}{'param':<18}{'mode':<10}{'max_rel_err':<14}"
             f"{'tape_max':<12}{'fd_max':<12}{'coords':<8}{'result'}"]
    for r in results:
        rel = "-" if np.isnan(r.max_rel_err) else f"{r.max_rel_err:.3e}"
        lines.append(
            f"{r.loss:<20}{r.param:<18}{r.mode:<10}{rel:<14}"
            f"{r.max_tape_abs:<12.3e}{r.max_fd_abs:<12.3e}{r.n_coords:<8}"
            f"{'ok' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines)

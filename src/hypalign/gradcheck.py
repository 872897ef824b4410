"""Finite-difference verification of the gradient engine, on the graph that
trains.

``run_check_grads`` builds the training objective (``total_loss``) once per
evaluation and checks each component of its report, and the total, as a
root of that one graph: central differences are compared against the tape
gradient of every root for every parameter class, on a seeded
configuration verified to sit away from the documented kinks (coincident
points for acosh, the hinge boundary, and aperture saturation) by a 1e-3
guard band.  Only the base evaluation builds a tape graph; the perturbed
forwards run on plain values.  All perturbations of one table go through
one forward, stacked along a new axis after the batch's group axis
(``(4, K, B, n)``), whose roots come back with one value per perturbation,
bit for bit those of that perturbation's own forward.  The six 0-d
parameters' perturbations go through one forward together: each scalar
carries a run axis ``(12,)`` (``autodiff.per_run``), and the gather's
stacked scales give the batch that run axis.  A default check makes 6
forwards: the base, four table stacks and the scalar stack.
The differences are taken on the surrogate the tape differentiates: each
forward's report is finished again with calibration's stopped leak held at
its base-point value (``LossReport.with_leak``).  A pair whose surrogate
differences are exactly zero while those of the root as evaluated are not,
a parameter that reaches the root only through that stopped leak, is
asserted the other way around: the tape gradient must be exactly zero
while the finite difference is not.
"""

from __future__ import annotations

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
from .manifold import Manifold, acosh_argument, lift, pairwise_inner
from .synthdata import BatchIndices
from .trainer import loss_config_with_vars, materialize_batch, parameter_store

GUARD_BAND = 1e-3
_REL_FLOOR = 1e-6
# check-grads' defaults, which the command line's flags share
DEFAULT_SEED, DEFAULT_STEP, DEFAULT_TOLERANCE, DEFAULT_MAX_COORDS = 1, 1e-5, 1e-4, 200


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


def finite_diff_check(f, store: ParameterStore, *, step: float = DEFAULT_STEP,
                      tolerance: float = DEFAULT_TOLERANCE, max_coords: int = DEFAULT_MAX_COORDS,
                      seed: int = 0) -> list[CheckResult]:
    """Compare the tape gradients of the named scalar roots ``f`` builds
    against central finite differences, sub-sampling at most ``max_coords``
    coordinates per parameter; one result per root and parameter.

    ``f(params)`` reads each parameter from ``params`` and returns
    ``(roots, stopped, finish)``: a mapping of name to root, the value the
    roots read behind a stop-gradient (or None), and ``finish(stand_in)``,
    which gives the roots again with ``stand_in`` in the stopped value's
    place (None when nothing is stopped).  The base evaluation is handed the
    store's Vars: its graph gives every root's tape gradient and the base
    stopped value.  Every perturbed evaluation is handed plain arrays and
    builds no graph.  A stack is a set of parameters perturbed together:
    each array parameter alone, and the 0-d parameters together.  A stack's
    perturbations (each sampled coordinate at +step, then each at -step)
    go to ``f`` at once, along a new leading axis of each of its
    parameters (a 0-d parameter becomes ``(K,)``): run ``j`` moves one
    sampled coordinate of one of them and leaves every other value as it
    is.  ``f`` must then give each root (and the stand-in's roots) with
    that axis, one value per perturbation, each as ``f`` would give it for
    that perturbation alone, or as one value if the root does not read the
    stack's parameters; a root of any other shape is refused, naming the
    stack's parameters.  Each perturbed evaluation is finished with the
    base stopped value, so the differences are those of the surrogate the tape
    differentiates, where the stopped factor contributes its value but no
    derivative.  Relative error uses the floor
    ``max(|fd|, |tape|, 1e-6)`` so agreeing near-zero gradients pass.  A
    pair whose surrogate differences are exactly zero at every sampled
    coordinate while those of the root as evaluated are not (the parameter
    reaches the root only through the stopped value) is checked the other
    way around: an exactly-zero tape gradient alongside a difference of the
    root as evaluated above 1e-8 (the value moves, the gradient must not).
    """
    if not (1e-7 <= step <= 1e-3):
        raise ContractViolationError(f"finite-difference step {step} out of range")
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ContractViolationError(f"tolerance {tolerance} must be positive and finite")
    if max_coords < 1:
        raise ContractViolationError(f"max_coords {max_coords} must be at least 1")
    params = store.as_dict()
    roots, stopped, _ = f(params)
    names = list(roots)
    tapes = {r: ad.gradients(roots[r], params) for r in names}
    base = None if stopped is None else value_of(stopped).copy()
    values = {name: var.value for name, var in params.items()}
    rng = np.random.default_rng(seed)
    coords = {name: np.arange(v.size) if v.size <= max_coords
              else rng.choice(v.size, size=max_coords, replace=False)
              for name, v in values.items()}

    def evaluate(perturbed: dict, k: int) -> np.ndarray:
        # every root of the surrogate, then of the objective as evaluated,
        # one value per run of the stack: (2, roots, k)
        live, _, finish = f({**values, **perturbed})
        held = live if finish is None else finish(base)
        try:
            return np.array([[np.broadcast_to(value_of(rs[r]), (k,)) for r in names]
                             for rs in (held, live)])
        except ValueError:
            stacked = ", ".join(f"'{name}'" for name in perturbed)
            raise ContractViolationError(
                f"f gave a root that is not one value per perturbation of {stacked}") from None

    # (surrogate or as evaluated, root, coordinate) differences per parameter
    diffs = {}
    stacks = [[name] for name, v in values.items() if v.ndim]
    scalars = [name for name, v in values.items() if not v.ndim]
    if scalars:
        stacks.append(scalars)
    for stack in stacks:
        # the stack's parameters as one vector; run j < n moves its j-th
        # sampled coordinate by +step, run n + j by -step
        offsets = np.cumsum([0, *(values[name].size for name in stack)])
        flat = np.concatenate([values[name].ravel() for name in stack])
        at = np.concatenate([coords[name] + o for name, o in zip(stack, offsets)])
        n = len(at)
        runs = np.repeat(flat[None], 2 * n, axis=0)
        runs[np.arange(n), at] = flat[at] + step
        runs[np.arange(n, 2 * n), at] = flat[at] - step
        both = evaluate({name: runs[:, lo:hi].reshape(2 * n, *values[name].shape)
                         for name, lo, hi in zip(stack, offsets, offsets[1:])}, 2 * n)
        frozen, raw = (both[..., :n] - both[..., n:]) / (2.0 * step)
        cols = np.cumsum([0, *(len(coords[name]) for name in stack)])
        for name, lo, hi in zip(stack, cols, cols[1:]):
            diffs[name] = frozen[:, lo:hi], raw[:, lo:hi]

    # each parameter's statistics, one reduction over its (root, coordinate)
    # arrays each, as one list per statistic with an entry per root
    stats = {}
    for name, (frozen, raw) in diffs.items():
        tape = np.array([tapes[r][name].ravel() for r in names])
        sampled = tape[:, coords[name]]
        rel = np.abs(frozen - sampled) / np.maximum(
            np.maximum(np.abs(frozen), np.abs(sampled)), _REL_FLOOR)
        zero = np.all(frozen == 0.0, axis=1) & np.any(raw != 0.0, axis=1)
        stats[name] = (zero.tolist(), np.max(rel, axis=1, initial=0.0).tolist(),
                       np.max(np.abs(tape), axis=1, initial=0.0).tolist(),
                       np.max(np.abs(np.where(zero[:, None], raw, frozen)), axis=1,
                              initial=0.0).tolist())

    results = []
    for j, root in enumerate(names):
        for name in values:
            zero, max_rel, max_tape, max_fd = (stat[j] for stat in stats[name])
            n = len(coords[name])
            if zero:
                results.append(CheckResult(root, name, "zero_tape", float("nan"), max_tape,
                                           max_fd, n, max_tape == 0.0 and max_fd > 1e-8))
            else:
                results.append(CheckResult(root, name, "match", max_rel, max_tape, max_fd, n,
                                           max_rel < tolerance))
    return results


# ---------------------------------------------------------------------------
# the seeded check problem
# ---------------------------------------------------------------------------

def build_check_problem(seed: int = DEFAULT_SEED):
    """Seeded store, batch indices and loss config for gradient checking
    (6 rows of dimension 8); raises if the configuration lands within the
    kink guard band."""
    if seed < 0:
        raise ContractViolationError(f"seed {seed} outside its domain [0, inf)")
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
    objective's terms: the batch is gathered as training gathers it, on plain
    values, lifted as one stack and read through the objective's own
    entailment stack and distance pairs."""
    kappa = float(value_of(store["kappa"]))
    manifold = Manifold(kappa)
    batch = materialize_batch({name: value_of(var) for name, var in store.items()}, idx)
    points = lift(batch.groups, manifold)
    cone = cfg.cone
    apex = points.groups(APEXES)
    phi = value_of(exterior_angle(apex, points.groups(MEMBERS), manifold))
    omega = value_of(aperture(apex, cone.aperture_k, manifold))
    apex_norm = ad._row_norm(value_of(apex.space))
    asin_arg = 2.0 * cone.aperture_k / (np.sqrt(kappa) * apex_norm)
    # hinge boundary, acos endpoints, aperture saturation
    margins = [np.abs(phi - entailment_etas(cone) * omega),
               1.0 - np.abs(np.cos(phi)), np.abs(1.0 - asin_arg)]
    # coincident-point (acosh) margin for every distance matrix
    for a, b in DISTANCE_PAIRS:
        pa, pb = points.groups(a), points.groups(b)
        inner = pairwise_inner(pa.time, pa.space, pb.time, pb.space)
        margins.append(acosh_argument(inner, kappa, out=inner) - 1.0)
    margin = min(np.min(x) for x in margins)
    if margin < GUARD_BAND:
        raise NumericalConsistencyError(
            f"gradient-check configuration within {GUARD_BAND} of a kink "
            f"(margin {margin:.2e}); choose another seed"
        )


def run_check_grads(seed: int = DEFAULT_SEED, *, step: float = DEFAULT_STEP,
                    tolerance: float = DEFAULT_TOLERANCE, max_coords: int = DEFAULT_MAX_COORDS):
    """Check every component of the ``total_loss`` report, and the total,
    for every parameter, as roots of the one graph training differentiates;
    returns (results, all_passed)."""
    store, idx, cfg = build_check_problem(seed)

    def named(report) -> dict:
        return {**report.components, "total_loss": report.total}

    def roots(params: dict):
        report = total_loss(materialize_batch(params, idx), loss_config_with_vars(cfg, params),
                            Manifold(params["kappa"]))
        return named(report), report.leak, lambda leak: named(report.with_leak(leak))

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

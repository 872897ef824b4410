"""Engine-level checks: every primitive against finite differences, the
backward pass contracts, and stop-gradient semantics.  The fused geometry
nodes have their own file, ``test_fused_ops.py``, and the fused loss nodes
``test_fused_loss_ops.py``; the lift's two nodes also run through the
primitive finite-difference check here, and so do the test-local reference
nodes those files build their op-by-op compositions from."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, Var, value_of
from hypalign.entailment import aperture, exterior_angle
from hypalign.errors import ContractViolationError, NumericalConsistencyError
from hypalign.manifold import LorentzPoint, Manifold, lift, pairwise_distance

from test_fused_loss_ops import _diag_part, _logsumexp, _relu
from test_fused_ops import _cosh_sqrt, _matmul, _sinhc_sqrt, _transpose


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def tape_grad(op, x):
    v = Var(np.asarray(x, dtype=np.float64))
    out = ad.reduce_sum(op(v)) if value_of(op(v)).ndim else op(v)
    return ad.gradients(out, {"x": v})["x"]


def per_node_sweep(root):
    """Reverse sweep that checks every adjoint as it is produced: the
    reference for which node a non-finite gradient is blamed on."""
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(ad._toposort(root)):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericalConsistencyError(
                f"non-finite gradient flowing into node '{node.name}'")
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not np.all(np.isfinite(pg)):
                raise NumericalConsistencyError(
                    f"non-finite gradient produced by node '{node.name}'")
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def lift_time(x):
    """Time components of the lifts of ``len(x)`` one-dimensional tangents."""
    return lift(ad.reshape(x, (-1, 1)), Manifold(1.0)).time


def lift_space(x):
    """Space components of the same lifts, flattened."""
    return ad.reshape(lift(ad.reshape(x, (-1, 1)), Manifold(1.0)).space, (-1,))


class TestPrimitives:
    @pytest.mark.parametrize("op,domain", [
        (ad.exp, (-2, 2)),
        (ad.log, (0.5, 3)),
        (ad.log1p, (-0.5, 3)),
        (ad.sqrt, (0.2, 4)),
        (ad.square, (-2, 2)),
        (ad.acosh_clamped, (1.5, 4)),
        (ad.neg, (-2, 2)),
        (_relu, (0.3, 2)),
        (lift_time, (-3, 3)),
        (lift_space, (-3, 3)),
        (ad.asinhc_sqrt, (1e-9, 9)),
        (ad.softmax, (-2, 2)),
    ])
    def test_unary_matches_finite_differences(self, op, domain):
        rng = np.random.default_rng(3)
        x = rng.uniform(*domain, size=7)
        g = tape_grad(op, x)
        fd = fd_grad(lambda a: float(np.sum(value_of(op(a)))), x)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_series_branch_continuity(self):
        # values and derivatives agree across the series/direct switch; the
        # cosh/sinhc wrappers run the value and derivative helpers the fused
        # lift reads
        lo, hi = 1e-4 - 1e-12, 1e-4 + 1e-12
        for op in (_cosh_sqrt, _sinhc_sqrt, ad.asinhc_sqrt):
            assert abs(value_of(op(lo)) - value_of(op(hi))) < 1e-12
            np.testing.assert_allclose(tape_grad(op, np.array([lo])),
                                       tape_grad(op, np.array([hi])), rtol=1e-8)
        # the lift reads kappa |v|^2 through the same switch
        for op in (lift_time, lift_space):
            x_lo, x_hi = np.array([1e-2 - 1e-13]), np.array([1e-2 + 1e-13])
            assert abs(value_of(op(x_lo)) - value_of(op(x_hi)))[0] < 1e-12
            np.testing.assert_allclose(tape_grad(op, x_lo), tape_grad(op, x_hi), rtol=1e-8)

    def test_binary_broadcasting_gradients(self):
        rng = np.random.default_rng(5)
        a = Var(rng.normal(size=(4, 3)))
        b = Var(rng.normal(size=(3,)))
        s = Var(rng.normal())
        out = ad.reduce_sum(ad.mul(ad.add(a, b), ad.div(b, s)))
        grads = ad.gradients(out, {"a": a, "b": b, "s": s})

        def f(which, x):
            vals = {"a": a.value, "b": b.value, "s": s.value}
            vals[which] = x
            return float(np.sum((vals["a"] + vals["b"]) * (vals["b"] / vals["s"])))

        for name, var in (("a", a), ("b", b), ("s", s)):
            fd = fd_grad(lambda x, nm=name: f(nm, x), var.value.copy())
            np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8)

    def test_matmul_outer_transpose_reshape(self):
        rng = np.random.default_rng(6)
        a = Var(rng.normal(size=(3, 4)))
        b = Var(rng.normal(size=(4, 2)))
        out = ad.reduce_sum(ad.square(_matmul(a, b)))
        grads = ad.gradients(out, {"a": a, "b": b})
        fd_a = fd_grad(lambda x: float(np.sum((x @ b.value) ** 2)), a.value.copy())
        np.testing.assert_allclose(grads["a"], fd_a, rtol=1e-6)
        # an outer product as the matmul of a column and a row
        u = Var(rng.normal(size=5))
        v = Var(rng.normal(size=4))
        w = rng.normal(size=(5, 4))
        out2 = ad.reduce_sum(ad.mul(
            _matmul(ad.reshape(u, (5, 1)), ad.reshape(v, (1, 4))), w))
        g2 = ad.gradients(out2, {"u": u, "v": v})
        np.testing.assert_allclose(g2["u"], w @ v.value, rtol=1e-12)
        np.testing.assert_allclose(g2["v"], u.value @ w, rtol=1e-12)
        c = Var(rng.normal(size=(2, 6)))
        out3 = ad.reduce_sum(ad.square(ad.reshape(_transpose(c), (3, 4))))
        np.testing.assert_allclose(
            ad.gradients(out3, {"c": c})["c"], 2 * c.value, rtol=1e-12
        )

    def test_diag_part(self):
        m = Var(np.arange(9, dtype=float).reshape(3, 3))
        out = ad.reduce_sum(ad.mul(_diag_part(m), np.array([1.0, 2.0, 3.0])))
        g = ad.gradients(out, {"m": m})["m"]
        assert g[0, 0] == 1.0 and g[1, 1] == 2.0 and g[2, 2] == 3.0
        assert np.sum(np.abs(g)) == 6.0

    def test_logsumexp_with_neg_inf_mask(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 3)) * 50
        mask = np.zeros((3, 3))
        np.fill_diagonal(mask, -np.inf)
        v = Var(x)
        out = _logsumexp(ad.add(v, mask), axis=1)
        expected = [np.log(np.sum(np.exp(x[i] - x[i].max())[np.arange(3) != i]))
                    + x[i].max() for i in range(3)]
        np.testing.assert_allclose(value_of(out), expected, rtol=1e-12)
        g = ad.gradients(ad.reduce_sum(out), {"v": v})["v"]
        assert np.all(np.isfinite(g))
        assert np.all(np.diagonal(g) == 0.0)

    def test_clamped_ops_raise_beyond_budget(self):
        m = Manifold(1.0)
        with pytest.raises(NumericalConsistencyError):
            ad.acosh_clamped(np.array([0.5]))
        with pytest.raises(NumericalConsistencyError):   # acos argument 10 / sqrt(80)
            exterior_angle(LorentzPoint(1.0, np.array([1.0])),
                           LorentzPoint(1.0, np.array([10.0])), m)
        # inside the budget: silent clamp
        assert ad.acosh_clamped(np.array([1.0 - 1e-9]))[0] == 0.0
        near = LorentzPoint(np.array([1.0 - 1e-9]), np.zeros((1, 1)))
        origin = LorentzPoint(np.array([1.0]), np.zeros((1, 1)))
        assert pairwise_distance(near, origin, m)[0, 0] == 0.0
        # acos argument 1 / sqrt(1 - 2e-7), above 1 by about 1e-7
        assert float(exterior_angle(LorentzPoint(1.0, np.array([1.0])),
                                    LorentzPoint(1.0, np.array([1e7])), m)) == 0.0
        # aperture saturation is always silent
        assert float(aperture(LorentzPoint(1.0, np.array([1e-3])), 0.1, m)) \
            == pytest.approx(np.pi / 2)


class TestBackward:
    def test_quadratic_gradient_exact(self):
        v = Var(np.array([1.0, -2.0, 3.0]))
        out = ad.reduce_sum(ad.square(v))
        g = ad.gradients(out, {"v": v})["v"]
        np.testing.assert_array_equal(g, 2 * v.value)

    def test_unreachable_parameter_zero(self):
        v = Var(np.ones(3))
        w = Var(np.ones(2))
        out = ad.reduce_sum(ad.square(v))
        g = ad.gradients(out, {"v": v, "w": w})
        assert np.all(g["w"] == 0.0) and g["w"].shape == (2,)

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(11)
        v = Var(rng.normal(size=6))
        out = ad.reduce_sum(ad.exp(ad.mul(v, ad.square(v))))
        g1 = ad.gradients(out, {"v": v})["v"]
        g2 = ad.gradients(out, {"v": v})["v"]
        assert np.array_equal(g1, g2)

    def test_shared_subgraph_accumulates(self):
        v = Var(np.array([2.0]))
        s = ad.square(v)
        out = ad.add(ad.reduce_sum(s), ad.reduce_sum(ad.mul(s, 3.0)))
        g = ad.gradients(out, {"v": v})["v"]
        np.testing.assert_allclose(g, 4 * 2.0 * 2.0)  # d/dv of 4 v^2

    def test_nan_gradient_names_node(self):
        v = Var(np.array([0.0]))
        with np.errstate(divide="ignore"):
            out = ad.reduce_sum(ad.mul(ad.log(v), 0.5))  # derivative 1/0 -> inf
            with pytest.raises(NumericalConsistencyError, match="log"):
                ad.gradients(out, {"v": v})

    def test_deep_nonfinite_named_as_by_per_node_sweep(self):
        # 1/x at x = 1e-200 is finite, its derivative -1/x^2 is not; the
        # offending branch runs beside a finite one into a shared root
        rng = np.random.default_rng(12)
        a = Var(rng.normal(size=4), name="a")
        x = Var(np.array([1e-200, 1.0]), name="x")
        deep = ad.reduce_sum(_relu(ad.exp(ad.neg(ad.div(1.0, ad.mul(x, 3.0))))))
        finite = ad.reduce_sum(ad.square(ad.mul(a, 2.0)))
        root = ad.add(ad.mul(finite, 0.5), ad.mul(deep, 1e-3))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError) as per_node:
                per_node_sweep(root)
            with pytest.raises(NumericalConsistencyError) as one_pass:
                ad.gradients(root, {"a": a, "x": x})
        assert str(one_pass.value) == str(per_node.value)
        assert "'div'" in str(one_pass.value)

    def test_nonfinite_reaching_only_a_non_parameter_leaf_raises(self):
        v = Var(np.array([1.0, 2.0]), name="v")
        c = Var(np.array([1e-200]), name="c")      # not among the parameters
        root = ad.reduce_sum(ad.add(ad.square(v), ad.div(1.0, c)))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError, match="'div'"):
                ad.gradients(root, {"v": v})

    def test_overflowing_accumulation_at_a_leaf_raises(self):
        # each adjoint is finite; their sum at the leaf is not
        x = Var(np.array([1.0]), name="x")
        with np.errstate(over="ignore"):
            root = ad.reduce_sum(ad.add(ad.mul(x, 1e308), ad.mul(x, 1e308)))
            with pytest.raises(NumericalConsistencyError, match="leaf 'x'"):
                ad.gradients(root, {"x": x})

    def test_repeated_backward_over_fused_ops_bit_identical(self):
        rng = np.random.default_rng(13)
        kappa = Var(1.2, name="kappa")
        m = Manifold(kappa)
        a, b = Var(rng.normal(size=(3, 4)), name="a"), Var(rng.normal(size=(3, 4)), name="b")
        p, q = lift(a, m), lift(b, m)
        root = ad.add(ad.reduce_sum(pairwise_distance(p, q, m)),
                      ad.reduce_sum(ad.add(exterior_angle(p, q, m), aperture(p, 0.1, m))))
        params = {"a": a, "b": b, "kappa": kappa}
        g1, g2 = ad.gradients(root, params), ad.gradients(root, params)
        assert all(np.array_equal(g1[k], g2[k]) for k in params)

    def test_non_scalar_root_rejected(self):
        v = Var(np.ones(3))
        with pytest.raises(ContractViolationError):
            ad.backward(ad.square(v))


class TestStopGradient:
    def test_blocks_flow_but_passes_value(self):
        v = Var(np.array([1.5, -0.5]))
        out = ad.reduce_sum(ad.mul(ad.stop_gradient(ad.square(v)), v))
        np.testing.assert_allclose(value_of(out), np.sum(v.value**2 * v.value))
        g = ad.gradients(out, {"v": v})["v"]
        np.testing.assert_allclose(g, v.value**2)  # only the live factor

    def test_record_replay_pins_values(self):
        v = Var(np.array([2.0]))

        def f():
            return ad.reduce_sum(ad.mul(ad.stop_gradient(ad.square(v)), v))

        with ad.record_stop_gradients() as rec:
            base = float(value_of(f()))
        v.value = np.array([3.0])
        with ad.replay_stop_gradients(rec.values):
            frozen = float(value_of(f()))
        assert base == pytest.approx(4.0 * 2.0)
        assert frozen == pytest.approx(4.0 * 3.0)  # stopped factor stays 4

    def test_record_finds_leaves_behind_stops(self):
        live, stopped, nested, mixed, unused = (
            Var(np.array([1.0 + i]), name=n)
            for i, n in enumerate(("live", "stopped", "nested", "mixed", "unused")))
        with ad.record_stop_gradients() as rec:
            inner = ad.stop_gradient(ad.mul(nested, mixed))
            outer = ad.stop_gradient(ad.mul(inner, stopped))
            root = ad.reduce_sum(ad.mul(ad.mul(outer, live), mixed))
            other = ad.reduce_sum(ad.square(unused))
        behind = rec.behind_stops(root)
        # reached only through one or two stop-gradients; not live or unused
        assert {id(stopped), id(nested)} <= behind
        assert not {id(live), id(mixed), id(unused)} & behind
        assert rec.behind_stops(other) == set()

    def test_replay_exhaustion_detected(self):
        v = Var(np.array([1.0]))
        with pytest.raises(ContractViolationError):
            with ad.replay_stop_gradients([]):
                ad.stop_gradient(v)

    def test_unconsumed_replay_detected(self):
        v = Var(np.array([1.0]))
        with pytest.raises(ContractViolationError, match="consumed 1/2"):
            with ad.replay_stop_gradients([np.array([2.0]), np.array([3.0])]):
                ad.stop_gradient(v)

    @pytest.mark.parametrize("outer", ("record", "replay"))
    @pytest.mark.parametrize("inner", ("record", "replay"))
    def test_record_replay_do_not_nest(self, outer, inner):
        make = {"record": ad.record_stop_gradients,
                "replay": lambda: ad.replay_stop_gradients([])}
        with pytest.raises(ContractViolationError, match="cannot nest"):
            with make[outer]():
                with make[inner]():
                    pass
        # the failed entry leaves no context active
        assert float(value_of(ad.stop_gradient(np.array(5.0)))) == 5.0


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        with pytest.raises(ContractViolationError):
            store.register("a", np.zeros(2))

    def test_snapshot_load_roundtrip(self):
        store = ParameterStore()
        store.register("a", np.arange(4.0))
        store.register("b", 3.0)
        snap = store.snapshot()
        store["a"].value = store["a"].value * 0
        store.load(snap)
        np.testing.assert_array_equal(store["a"].value, np.arange(4.0))
        with pytest.raises(ContractViolationError):
            store.load({"a": np.zeros(4)})  # missing name

    def test_plain_numpy_fast_path(self):
        # raw inputs bypass the tape entirely
        assert not isinstance(ad.exp(np.zeros(2)), Var)
        assert not isinstance(ad.add(1.0, 2.0), Var)
        assert float(ad.add(1.0, 2.0)) == 3.0

    @pytest.mark.parametrize("combine", [
        lambda x, v: x + v, lambda x, v: v * x, lambda x, v: x - v, lambda x, v: v / x,
    ])
    def test_operator_arithmetic_rejected(self, combine):
        # ops go through the functions; mixed ndarray-Var arithmetic raises
        # instead of building an object array off the tape
        with pytest.raises(TypeError):
            combine(np.ones(2), Var(np.ones(2)))

"""Engine-level checks: the backward pass contracts, group stacks and the
parameter store, and every elementary reference op
(``_reference_ops.py``) against finite differences.  The fused geometry
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

import _reference_ops as ref
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
    out = ref.reduce_sum(op(v)) if value_of(op(v)).ndim else op(v)
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
    return lift(ref.reshape(x, (-1, 1)), Manifold(1.0)).time


def lift_space(x):
    """Space components of the same lifts, flattened."""
    return ref.reshape(lift(ref.reshape(x, (-1, 1)), Manifold(1.0)).space, (-1,))


class TestPrimitives:
    @pytest.mark.parametrize("op,domain", [
        (ref.exp, (-2, 2)),
        (ref.log, (0.5, 3)),
        (ref.log1p, (-0.5, 3)),
        (ref.sqrt, (0.2, 4)),
        (ref.square, (-2, 2)),
        (ref.acosh_clamped, (1.5, 4)),
        (ref.neg, (-2, 2)),
        (_relu, (0.3, 2)),
        (lift_time, (-3, 3)),
        (lift_space, (-3, 3)),
        (ref.asinhc_sqrt, (1e-9, 9)),
        (ref.softmax, (-2, 2)),
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
        for op in (_cosh_sqrt, _sinhc_sqrt, ref.asinhc_sqrt):
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
        out = ref.reduce_sum(ref.mul(ref.add(a, b), ref.div(b, s)))
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
        out = ref.reduce_sum(ref.square(_matmul(a, b)))
        grads = ad.gradients(out, {"a": a, "b": b})
        fd_a = fd_grad(lambda x: float(np.sum((x @ b.value) ** 2)), a.value.copy())
        np.testing.assert_allclose(grads["a"], fd_a, rtol=1e-6)
        # an outer product as the matmul of a column and a row
        u = Var(rng.normal(size=5))
        v = Var(rng.normal(size=4))
        w = rng.normal(size=(5, 4))
        out2 = ref.reduce_sum(ref.mul(
            _matmul(ref.reshape(u, (5, 1)), ref.reshape(v, (1, 4))), w))
        g2 = ad.gradients(out2, {"u": u, "v": v})
        np.testing.assert_allclose(g2["u"], w @ v.value, rtol=1e-12)
        np.testing.assert_allclose(g2["v"], u.value @ w, rtol=1e-12)
        c = Var(rng.normal(size=(2, 6)))
        out3 = ref.reduce_sum(ref.square(ref.reshape(_transpose(c), (3, 4))))
        np.testing.assert_allclose(
            ad.gradients(out3, {"c": c})["c"], 2 * c.value, rtol=1e-12
        )

    def test_diag_part(self):
        m = Var(np.arange(9, dtype=float).reshape(3, 3))
        out = ref.reduce_sum(ref.mul(_diag_part(m), np.array([1.0, 2.0, 3.0])))
        g = ad.gradients(out, {"m": m})["m"]
        assert g[0, 0] == 1.0 and g[1, 1] == 2.0 and g[2, 2] == 3.0
        assert np.sum(np.abs(g)) == 6.0

    def test_logsumexp_with_neg_inf_mask(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 3)) * 50
        mask = np.zeros((3, 3))
        np.fill_diagonal(mask, -np.inf)
        v = Var(x)
        out = _logsumexp(ref.add(v, mask), axis=1)
        expected = [np.log(np.sum(np.exp(x[i] - x[i].max())[np.arange(3) != i]))
                    + x[i].max() for i in range(3)]
        np.testing.assert_allclose(value_of(out), expected, rtol=1e-12)
        g = ad.gradients(ref.reduce_sum(out), {"v": v})["v"]
        assert np.all(np.isfinite(g))
        assert np.all(np.diagonal(g) == 0.0)

    def test_clamped_ops_raise_beyond_budget(self):
        m = Manifold(1.0)
        with pytest.raises(NumericalConsistencyError):
            ad._acosh_clamp(np.array([0.5]))
        with pytest.raises(NumericalConsistencyError):   # acos argument 10 / sqrt(80)
            exterior_angle(LorentzPoint(1.0, np.array([1.0])),
                           LorentzPoint(1.0, np.array([10.0])), m)
        # inside the budget: silent clamp
        assert ad._acosh_clamp(np.array([1.0 - 1e-9]))[0] == 1.0
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
        out = ref.reduce_sum(ref.square(v))
        g = ad.gradients(out, {"v": v})["v"]
        np.testing.assert_array_equal(g, 2 * v.value)

    def test_unreachable_parameter_zero(self):
        v = Var(np.ones(3))
        w = Var(np.ones(2))
        out = ref.reduce_sum(ref.square(v))
        g = ad.gradients(out, {"v": v, "w": w})
        assert np.all(g["w"] == 0.0) and g["w"].shape == (2,)

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(11)
        v = Var(rng.normal(size=6))
        out = ref.reduce_sum(ref.exp(ref.mul(v, ref.square(v))))
        g1 = ad.gradients(out, {"v": v})["v"]
        g2 = ad.gradients(out, {"v": v})["v"]
        assert np.array_equal(g1, g2)

    def test_shared_subgraph_accumulates(self):
        v = Var(np.array([2.0]))
        s = ref.square(v)
        out = ref.add(ref.reduce_sum(s), ref.reduce_sum(ref.mul(s, 3.0)))
        g = ad.gradients(out, {"v": v})["v"]
        np.testing.assert_allclose(g, 4 * 2.0 * 2.0)  # d/dv of 4 v^2

    def test_nan_gradient_names_node(self):
        v = Var(np.array([0.0]))
        with np.errstate(divide="ignore"):
            out = ref.reduce_sum(ref.mul(ref.log(v), 0.5))  # derivative 1/0 -> inf
            with pytest.raises(NumericalConsistencyError, match="log"):
                ad.gradients(out, {"v": v})

    def test_deep_nonfinite_named_as_by_per_node_sweep(self):
        # 1/x at x = 1e-200 is finite, its derivative -1/x^2 is not; the
        # offending branch runs beside a finite one into a shared root
        rng = np.random.default_rng(12)
        a = Var(rng.normal(size=4), name="a")
        x = Var(np.array([1e-200, 1.0]), name="x")
        deep = ref.reduce_sum(_relu(ref.exp(ref.neg(ref.div(1.0, ref.mul(x, 3.0))))))
        finite = ref.reduce_sum(ref.square(ref.mul(a, 2.0)))
        root = ref.add(ref.mul(finite, 0.5), ref.mul(deep, 1e-3))
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
        root = ref.reduce_sum(ref.add(ref.square(v), ref.div(1.0, c)))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError, match="'div'"):
                ad.gradients(root, {"v": v})

    def test_overflowing_accumulation_at_a_leaf_raises(self):
        # each adjoint is finite; their sum at the leaf is not
        x = Var(np.array([1.0]), name="x")
        with np.errstate(over="ignore"):
            root = ref.reduce_sum(ref.add(ref.mul(x, 1e308), ref.mul(x, 1e308)))
            with pytest.raises(NumericalConsistencyError, match="leaf 'x'"):
                ad.gradients(root, {"x": x})

    def test_repeated_backward_over_fused_ops_bit_identical(self):
        rng = np.random.default_rng(13)
        kappa = Var(1.2, name="kappa")
        m = Manifold(kappa)
        a, b = Var(rng.normal(size=(3, 4)), name="a"), Var(rng.normal(size=(3, 4)), name="b")
        p, q = lift(a, m), lift(b, m)
        root = ref.add(ref.reduce_sum(pairwise_distance(p, q, m)),
                      ref.reduce_sum(ref.add(exterior_angle(p, q, m), aperture(p, 0.1, m))))
        params = {"a": a, "b": b, "kappa": kappa}
        g1, g2 = ad.gradients(root, params), ad.gradients(root, params)
        assert all(np.array_equal(g1[k], g2[k]) for k in params)

    @pytest.mark.parametrize("root, message", [
        (lambda: ref.square(Var(np.ones(3))), "backward root must be scalar"),
        (lambda: np.ones(()), "backward requires a Var root"),
    ])
    def test_root_not_a_scalar_var_rejected(self, root, message):
        with pytest.raises(ContractViolationError, match=f"^{message}$"):
            ad.backward(root())


class TestGroupStacks:
    def test_stack_and_pick_plain_path(self):
        a, b = np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(2, 3)
        stacked = ref.stack([a, b])
        assert not ad.is_var(stacked) and stacked.shape == (2, 2, 3)
        assert np.array_equal(ad.pick(stacked, 1), b)
        assert np.array_equal(ad.pick(stacked, (1, 0, 1)), np.stack([b, a, b]))

    def test_picks_of_one_base_share_a_parent(self):
        # a node reading groups (1, 0, 1) and group 1 of one stack: one
        # parent entry, whose adjoint adds every pick into its groups
        x = Var(np.random.default_rng(0).normal(size=(3, 2)), name="x")
        many, one = ad.pick(x, (1, 0, 1)), ad.pick(x, 1)
        assert ad.is_var(many) and np.array_equal(value_of(many), x.value[[1, 0, 1]])
        w = np.arange(6.0).reshape(3, 2)
        node = ad.fused(np.sum(value_of(many) * w) + np.sum(value_of(one)), "probe",
                        (many, one), lambda g: (g * w, np.full(2, g)))
        assert node._parents == (x,)
        g = ad.gradients(node, {"x": x})["x"]
        np.testing.assert_array_equal(g, [w[1], w[0] + w[2] + 1.0, [0.0, 0.0]])

    def test_stack_gradient_splits_by_group(self):
        a, b = Var(np.array([1.0, 2.0])), Var(np.array([3.0, -1.0]))
        out = ref.reduce_sum(ref.mul(ref.stack([a, b]), np.array([[1.0, 2.0], [3.0, 4.0]])))
        g = ad.gradients(out, {"a": a, "b": b})
        np.testing.assert_array_equal(g["a"], [1.0, 2.0])
        np.testing.assert_array_equal(g["b"], [3.0, 4.0])


class TestParameterStore:
    def test_duplicate_or_unknown_name_rejected(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        with pytest.raises(ContractViolationError):
            store.register("a", np.zeros(2))
        with pytest.raises(ContractViolationError, match="^unknown parameter 'b'$"):
            store["b"]

    def test_plain_numpy_fast_path(self):
        # raw inputs bypass the tape entirely
        assert not isinstance(ref.exp(np.zeros(2)), Var)
        assert not isinstance(ref.add(1.0, 2.0), Var)
        assert float(ref.add(1.0, 2.0)) == 3.0

    @pytest.mark.parametrize("combine", [
        lambda x, v: x + v, lambda x, v: v * x, lambda x, v: x - v, lambda x, v: v / x,
    ])
    def test_operator_arithmetic_rejected(self, combine):
        # ops go through the functions; mixed ndarray-Var arithmetic raises
        # instead of building an object array off the tape
        with pytest.raises(TypeError):
            combine(np.ones(2), Var(np.ones(2)))

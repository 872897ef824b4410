"""Engine-level checks: every primitive against finite differences, the
backward pass contracts, and stop-gradient semantics."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, Var, value_of
from hypalign.errors import ContractViolationError, NumericalConsistencyError


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


class TestPrimitives:
    @pytest.mark.parametrize("op,domain", [
        (ad.exp, (-2, 2)),
        (ad.log, (0.5, 3)),
        (ad.log1p, (-0.5, 3)),
        (ad.sqrt, (0.2, 4)),
        (ad.square, (-2, 2)),
        (ad.acosh_clamped, (1.5, 4)),
        (ad.acos_clamped, (-0.9, 0.9)),
        (ad.relu, (0.3, 2)),
        (ad.cosh_sqrt, (1e-9, 9)),
        (ad.sinhc_sqrt, (1e-9, 9)),
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
        # values and derivatives agree across the series/direct switch
        for op in (ad.cosh_sqrt, ad.sinhc_sqrt, ad.asinhc_sqrt):
            lo, hi = value_of(op(1e-4 - 1e-12)), value_of(op(1e-4 + 1e-12))
            assert abs(lo - hi) < 1e-12
            g_lo = tape_grad(op, np.array([1e-4 - 1e-12]))
            g_hi = tape_grad(op, np.array([1e-4 + 1e-12]))
            np.testing.assert_allclose(g_lo, g_hi, rtol=1e-8)

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
        out = ad.reduce_sum(ad.square(ad.matmul(a, b)))
        grads = ad.gradients(out, {"a": a, "b": b})
        fd_a = fd_grad(lambda x: float(np.sum((x @ b.value) ** 2)), a.value.copy())
        np.testing.assert_allclose(grads["a"], fd_a, rtol=1e-6)
        u = Var(rng.normal(size=5))
        v = Var(rng.normal(size=4))
        out2 = ad.reduce_sum(ad.mul(ad.outer(u, v), rng.normal(size=(5, 4))))
        g2 = ad.gradients(out2, {"u": u, "v": v})
        assert g2["u"].shape == (5,) and g2["v"].shape == (4,)
        c = Var(rng.normal(size=(2, 6)))
        out3 = ad.reduce_sum(ad.square(ad.reshape(ad.transpose(c), (3, 4))))
        np.testing.assert_allclose(
            ad.gradients(out3, {"c": c})["c"], 2 * c.value, rtol=1e-12
        )

    def test_l2norm_gradient_and_zero_convention(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        g = tape_grad(lambda v: ad.l2norm(v, axis=-1), x)
        fd = fd_grad(lambda a: float(np.sum(np.linalg.norm(a, axis=-1))), x.copy())
        np.testing.assert_allclose(g, fd, rtol=1e-6)
        z = Var(np.zeros(3))
        gz = ad.gradients(ad.l2norm(z, axis=-1), {"z": z})["z"]
        assert np.all(gz == 0.0)

    def test_take_rows_accumulates_duplicates(self):
        t = Var(np.arange(12, dtype=float).reshape(4, 3))
        out = ad.reduce_sum(ad.take_rows(t, np.array([0, 2, 2, 2])))
        g = ad.gradients(out, {"t": t})["t"]
        np.testing.assert_array_equal(g[:, 0], [1.0, 0.0, 3.0, 0.0])

    def test_diag_part(self):
        m = Var(np.arange(9, dtype=float).reshape(3, 3))
        out = ad.reduce_sum(ad.mul(ad.diag_part(m), np.array([1.0, 2.0, 3.0])))
        g = ad.gradients(out, {"m": m})["m"]
        assert g[0, 0] == 1.0 and g[1, 1] == 2.0 and g[2, 2] == 3.0
        assert np.sum(np.abs(g)) == 6.0

    def test_logsumexp_with_neg_inf_mask(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 3)) * 50
        mask = np.zeros((3, 3))
        np.fill_diagonal(mask, -np.inf)
        v = Var(x)
        out = ad.logsumexp(ad.add(v, mask), axis=1)
        expected = [np.log(np.sum(np.exp(x[i] - x[i].max())[np.arange(3) != i]))
                    + x[i].max() for i in range(3)]
        np.testing.assert_allclose(value_of(out), expected, rtol=1e-12)
        g = ad.gradients(ad.reduce_sum(out), {"v": v})["v"]
        assert np.all(np.isfinite(g))
        assert np.all(np.diagonal(g) == 0.0)

    def test_clamped_ops_raise_beyond_budget(self):
        with pytest.raises(NumericalConsistencyError):
            ad.acosh_clamped(np.array([0.5]))
        with pytest.raises(NumericalConsistencyError):
            ad.acos_clamped(np.array([1.2]))
        # inside the budget: silent clamp
        assert ad.acosh_clamped(np.array([1.0 - 1e-9]))[0] == 0.0
        assert ad.acos_clamped(np.array([1.0 + 1e-9]))[0] == 0.0
        # aperture saturation is always silent
        assert ad.asin_saturating(np.array([3.0]))[0] == pytest.approx(np.pi / 2)


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

    def test_replay_exhaustion_detected(self):
        v = Var(np.array([1.0]))
        with pytest.raises(ContractViolationError):
            with ad.replay_stop_gradients([]):
                ad.stop_gradient(v)


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

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sws
from sws import tensor as T
from sws.sharing import balanced_plan, build_aux
from sws.tensor import Tensor, backward, grad_check
from sws.train import loss_cls
from sws.vit import ModelConfig, forward_logits


SRC = str(Path(sws.__file__).resolve().parents[1])


def rnd(shape, seed=0, scale=1.0):
    return np.asarray(np.random.default_rng(seed).standard_normal(shape) * scale)


# ---- forward values ---------------------------------------------------------


def test_add_mul_values():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    b = Tensor(np.array([10.0, 20.0], dtype=np.float32))
    assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
    assert np.array_equal(T.mul(a, b).data, [[10.0, 40.0], [30.0, 80.0]])
    assert np.array_equal((a - b).data, [[-9.0, -18.0], [-7.0, -16.0]])


def test_matmul_matches_numpy():
    a, b = rnd((4, 5), 1), rnd((5, 3), 2)
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, a.astype(np.float32) @ b.astype(np.float32), rtol=1e-6)


def test_matmul_batched_broadcast():
    a, b = rnd((2, 3, 4, 5), 1), rnd((5, 6), 2)
    got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    np.testing.assert_allclose(got, a @ b, rtol=1e-12)


def test_shape_errors_name_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(T.ShapeError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_mixed_dtype_rejected():
    with pytest.raises(TypeError, match="mixed"):
        T.add(Tensor(np.ones(3, dtype=np.float32)), Tensor(np.ones(3, dtype=np.float64)))


def test_softmax_rows_sum_to_one():
    y = T.softmax_rows(Tensor(rnd((6, 9), 3))).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert (y > 0).all()


def test_softmax_shift_invariance_64bit_bitwise():
    # Exactly representable inputs and shift: x + c then (x+c) - max(x+c)
    # cancels bit for bit, so the shifted softmax is identical.
    x = np.round(rnd((4, 7), 5) * 8) / 8.0
    base = T.softmax_rows(Tensor(x, dtype=np.float64)).data
    shifted = T.softmax_rows(Tensor(x + 3.0, dtype=np.float64)).data
    assert np.array_equal(base, shifted)


def test_softmax_shift_invariance_32bit_tolerance():
    x = rnd((4, 7), 6).astype(np.float32)
    base = T.softmax_rows(Tensor(x)).data
    shifted = T.softmax_rows(Tensor(x + np.float32(0.731))).data
    np.testing.assert_allclose(base, shifted, atol=1e-6)


def test_softmax_rejects_nonfinite():
    bad = np.array([[0.0, np.inf]])
    with pytest.raises(T.NumericError):
        T.softmax_rows(Tensor(bad))


def test_layer_norm_two_point_row():
    x = Tensor(np.array([[1.0, 3.0]], dtype=np.float64))
    g = Tensor(np.ones(2, dtype=np.float64))
    b = Tensor(np.zeros(2, dtype=np.float64))
    out = T.layer_norm(x, g, b, eps=1e-12).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_rejects_bad_eps():
    x = Tensor(np.ones((2, 4)))
    aff = Tensor(np.ones(4))
    with pytest.raises(ValueError, match="eps"):
        T.layer_norm(x, aff, Tensor(np.zeros(4)), eps=0.0)


def test_gelu_saturation():
    out = T.gelu(Tensor(np.array([10.0, -10.0], dtype=np.float64))).data
    assert abs(out[0] - 10.0) < 1e-6
    assert abs(out[1]) < 1e-6


def test_soft_cross_entropy_frozen_value():
    # Independent 64-bit evaluation of -sum(p log q) for p=softmax([2,0]),
    # q=softmax([0,2]), computed with plain numpy here.
    p = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
    q = np.exp([0.0, 2.0]) / np.exp([0.0, 2.0]).sum()
    want = -(p * np.log(q)).sum()
    got = T.soft_cross_entropy(Tensor(p[None], dtype=np.float64), Tensor(q[None], dtype=np.float64)).item()
    assert abs(got - want) < 1e-12
    assert abs(got - 1.8885221669987375) < 1e-9


def test_soft_cross_entropy_one_hot_row():
    q = np.array([[0.2, 0.5, 0.3]])
    p = np.array([[0.0, 1.0, 0.0]])
    got = T.soft_cross_entropy(Tensor(p, dtype=np.float64), Tensor(q, dtype=np.float64)).item()
    assert abs(got + np.log(0.5)) < 1e-12


def test_soft_cross_entropy_clamps_log_zero():
    p = np.array([[0.5, 0.5]])
    q = np.array([[1.0, 0.0]])
    got = T.soft_cross_entropy(Tensor(p, dtype=np.float64), Tensor(q, dtype=np.float64)).item()
    assert np.isfinite(got)
    assert abs(got - (0.5 * 30.0)) < 1e-12  # -0.5*log(1) - 0.5*(-30)


def test_soft_cross_entropy_validates_rows():
    with pytest.raises(ValueError, match="sum to 1"):
        T.soft_cross_entropy(Tensor(np.array([[0.9, 0.3]])), Tensor(np.array([[0.5, 0.5]])))


# ---- backward ----------------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="scalar"):
        backward(T.add(x, x))


def test_multi_site_gradient_sums():
    # f(x) = sum(x*x) via two uses of the same tensor: df/dx = 2x.
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)


def test_repeated_backward_accumulates():
    x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_tensor_used_many_sites_gets_site_sum():
    x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    y = T.add(T.mul(x, x), T.add(x, x))  # x^2 + 2x per element
    backward(T.sum_all(y))
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 2.0, rtol=1e-6)


def test_linear_identity_gradient_near_machine_eps():
    # d/dx sum(x @ I) == ones exactly up to float64 rounding.
    x = Tensor(rnd((3, 3), 9), requires_grad=True)
    backward(T.sum_all(T.matmul(x, Tensor(np.eye(3)))))
    assert np.abs(x.grad - 1.0).max() < 1e-12


def test_detach_blocks_gradient():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    backward(T.sum_all(T.mul(x.detach(), x)))
    np.testing.assert_allclose(x.grad, x.data)  # only the live side contributes


def test_backward_leaves_gradients_on_leaves_only():
    # The README-config tied model: an op result's gradient must not outlive
    # backward, so what backward leaves behind is the parameter grads alone.
    cfg = ModelConfig(image_size=12, patch_size=4, channels=1, depth=8, width=32, heads=4, classes=10)
    model = build_aux(cfg, balanced_plan(8, 4), seed=0)
    images = Tensor(rnd((64, 1, 12, 12), 1).astype(np.float32))
    labels = np.arange(64) % 10
    loss = loss_cls(forward_logits(model, images), labels)
    param_bytes = sum(t.data.nbytes for _, t in model.unique_tensors())
    tracemalloc.start()
    try:
        backward(loss)
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left <= param_bytes + (64 << 10), (left, param_bytes)
    assert all(t.grad is None for t in T.Graph.trace(loss).nodes if t._vjp is not None)
    for name, t in model.unique_tensors():
        assert t.grad is not None and np.isfinite(t.grad).all(), name


def test_graph_trace_orders_parents_first():
    x = Tensor(np.ones(2), requires_grad=True)
    y = T.mul(x, x)
    z = T.sum_all(y)
    nodes = T.Graph.trace(z).nodes
    assert nodes.index(x) < nodes.index(y) < nodes.index(z)


# ---- finite differences on every primitive -----------------------------------


def _fd(f, x, **kw):
    rep = grad_check(f, x, **kw)
    assert rep.passed, f"max rel err {rep.max_rel_err:.3e} over {rep.checked} coords"
    return rep


def test_fd_add():
    b = Tensor(rnd(4, 11))
    _fd(lambda x: T.sum_all(T.mul(T.add(x, b), T.add(x, b))), rnd((3, 4), 10))


def test_fd_sub_neg():
    b = Tensor(rnd((3, 4), 12))
    _fd(lambda x: T.sum_all(T.mul(T.sub(x, b), T.neg(x))), rnd((3, 4), 13))


def test_fd_mul_broadcast():
    b = Tensor(rnd((1, 4), 14))
    _fd(lambda x: T.sum_all(T.mul(x, b)), rnd((3, 4), 15))


def test_fd_scale():
    _fd(lambda x: T.sum_all(T.scale(T.mul(x, x), -0.37)), rnd((2, 5), 16))


def test_fd_matmul():
    b = Tensor(rnd((4, 3), 17))
    _fd(lambda x: T.sum_all(T.mul(y := T.matmul(x, b), y)), rnd((2, 4), 18))


def test_fd_matmul_batched():
    b = Tensor(rnd((2, 2, 4, 3), 19))
    _fd(lambda x: T.sum_all(T.mul(y := T.matmul(x, b), y)), rnd((2, 2, 5, 4), 20))


def test_fd_matmul_broadcast_rhs():
    a = Tensor(rnd((3, 2, 4, 5), 21))
    _fd(lambda x: T.sum_all(T.mul(y := T.matmul(a, x), y)), rnd((5, 3), 22))


def test_fd_reshape_permute():
    def f(x):
        y = T.permute(T.reshape(x, (2, 3, 4)), (2, 0, 1))
        return T.sum_all(T.mul(y, y))
    _fd(f, rnd((6, 4), 23))


def test_fd_broadcast_to():
    def f(x):
        y = T.broadcast_to(x, (5, 3, 4))
        return T.sum_all(T.mul(y, y))
    _fd(f, rnd((3, 4), 24))


def test_fd_index_axis():
    def f(x):
        y = T.index_axis(x, 1, 2)
        return T.sum_all(T.mul(y, y))
    _fd(f, rnd((3, 4, 2), 25))


def test_fd_concat():
    b = Tensor(rnd((2, 3), 26))
    def f(x):
        y = T.concat([x, b, x], axis=0)
        return T.sum_all(T.mul(y, y))
    _fd(f, rnd((2, 3), 27))


def test_fd_mean_all():
    _fd(lambda x: T.mean_all(T.mul(x, x)), rnd((4, 6), 28))


def test_fd_softmax():
    w = Tensor(rnd((3, 5), 29))
    _fd(lambda x: T.sum_all(T.mul(T.softmax_rows(x), w)), rnd((3, 5), 30))


def test_fd_layer_norm_all_inputs():
    g0, b0 = rnd(6, 31, 0.5) + 1.0, rnd(6, 32, 0.1)
    x0 = rnd((4, 6), 33)
    w = Tensor(rnd((4, 6), 34))
    _fd(lambda x: T.sum_all(T.mul(T.layer_norm(x, Tensor(g0), Tensor(b0)), w)), x0)
    _fd(lambda g: T.sum_all(T.mul(T.layer_norm(Tensor(x0), g, Tensor(b0)), w)), g0)
    _fd(lambda b: T.sum_all(T.mul(T.layer_norm(Tensor(x0), Tensor(g0), b), w)), b0)


def test_fd_gelu():
    _fd(lambda x: T.sum_all(T.mul(T.gelu(x), T.gelu(x))), rnd((3, 7), 35))


def test_fd_soft_cross_entropy_both_sides():
    zp, zq = rnd((3, 4), 36), rnd((3, 4), 37)
    _fd(lambda z: T.soft_cross_entropy(T.softmax_rows(z), T.softmax_rows(Tensor(zq))), zp)
    _fd(lambda z: T.soft_cross_entropy(T.softmax_rows(Tensor(zp)), T.softmax_rows(z)), zq)


def test_cross_entropy_backward_is_softmax_minus_onehot():
    # Composite check: d/dz of CE(onehot, softmax(z)) == (softmax(z) - onehot)/B.
    z = Tensor(rnd((4, 5), 38), requires_grad=True)
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), [1, 3, 0, 2]] = 1.0
    backward(T.soft_cross_entropy(Tensor(onehot), T.softmax_rows(z)))
    probs = T.softmax_rows(Tensor(z.data)).data
    np.testing.assert_allclose(z.grad, (probs - onehot) / 4.0, atol=1e-10)


def test_grad_check_catches_corrupt_rule():
    # An op wired with a wrong vjp (3x instead of 2x) must fail the check.
    def bad_square(x):
        return Tensor._result(x.data * x.data, (x,), lambda g: [3.0 * g * x.data])
    rep = grad_check(lambda x: T.sum_all(bad_square(x)), rnd((2, 3), 39))
    assert not rep.passed


def test_grad_check_subsamples_deterministically():
    f = lambda x: T.sum_all(T.mul(x, x))
    r1 = grad_check(f, rnd((10, 10), 40), max_coords=7, seed=5)
    r2 = grad_check(f, rnd((10, 10), 40), max_coords=7, seed=5)
    assert r1.checked == 7 and r1.max_rel_err == r2.max_rel_err


# ---- weight products: a 2-D right operand folds a's leading axes into rows --------


def test_fd_matmul_weight_product_lhs():
    b = Tensor(rnd((4, 3), 40))
    _fd(lambda x: T.sum_all(T.mul(y := T.matmul(x, b), y)), rnd((2, 5, 4), 41))


@pytest.mark.parametrize("a_shape", [(7, 16), (3, 7, 16), (2, 3, 7, 16)])
def test_weight_product_matches_batched_reference(a_shape):
    # float32 results may differ from numpy's batched matmul only in summation
    # order; rtol 1e-5 (about 80 float32 ulps) was fixed before measuring.
    a = rnd(a_shape, 42).astype(np.float32)
    b = rnd((16, 5), 43).astype(np.float32)
    g = rnd(a_shape[:-1] + (5,), 44).astype(np.float32)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = T.matmul(ta, tb)
    backward(T.sum_all(T.mul(out, Tensor(g))))
    gb_batched = np.matmul(np.swapaxes(a, -1, -2), g)
    assert out.data.dtype == ta.grad.dtype == tb.grad.dtype == np.float32
    np.testing.assert_allclose(out.data, np.matmul(a, b), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(ta.grad, np.matmul(g, b.T), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(tb.grad, gb_batched.reshape(-1, 16, 5).sum(axis=0), rtol=1e-5, atol=1e-5)


def test_weight_product_of_a_permuted_view():
    x = Tensor(rnd((4, 3, 6), 45), dtype=np.float64)
    w = Tensor(rnd((4, 2), 46), dtype=np.float64)
    got = T.matmul(T.permute(x, (1, 2, 0)), w).data
    np.testing.assert_allclose(got, np.transpose(x.data, (1, 2, 0)) @ w.data, rtol=1e-12)


# ---- erf: a numpy copy of Cephes, bit for bit -------------------------------------

# float32 input bits -> erf output bits, computed with scipy.special.erf.
ERF32_GOLDEN = [
    (0x00000000, 0x00000000), (0x80000000, 0x80000000), (0x00000001, 0x00000001),
    (0x806CE3EE, 0x807ADE9E), (0x1E3CE508, 0x1E552511), (0x3E000000, 0x3E0FAF0D),
    (0x3F000000, 0x3F053F7B), (0xBF3504F3, 0xBF2EC4BD), (0x3F7FFFFF, 0x3F57BB3D),
    (0x3F800000, 0x3F57BB3D), (0xBF800000, 0xBF57BB3D), (0x3F800001, 0x3F57BB3E),
    (0x3FC00000, 0x3F7752AB), (0xC0100000, 0xBF7FA024), (0x40400000, 0x3F7FFE8D),
    (0x40900000, 0x3F800000), (0xC0BCCCCD, 0xBF800000), (0x40FFFFFF, 0x3F800000),
    (0x41000000, 0x3F800000), (0xC1000000, 0xBF800000), (0x7149F2CA, 0x3F800000),
    (0x7F800000, 0x3F800000), (0xFF800000, 0xBF800000),
]


def test_erf_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    # Every 4099th float32 bit pattern, +-64 ulps around +-1 and +-8, subnormals, +-0, +-inf.
    strided = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
    edges = [np.float32(v).view(np.uint32) for v in (1.0, 8.0, -1.0, -8.0)]
    near = np.concatenate([np.arange(int(e) - 64, int(e) + 65, dtype=np.uint32) for e in edges])
    sub = np.concatenate([np.arange(0, 4096, dtype=np.uint32), np.arange(0x007FF000, 0x00800000, dtype=np.uint32)])
    special_bits = np.array([0x7F800000, 0xFF800000], dtype=np.uint32)
    x = np.concatenate([strided, near, sub, sub | np.uint32(0x80000000), special_bits]).view(np.float32)
    x = x[~np.isnan(x)]
    got, want = T._erf(x), special.erf(x)
    assert got.dtype == np.float32
    bad = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
    assert bad.size == 0, f"{bad.size} mismatches, first at x={x[bad[0]]!r}"
    x64 = rnd(20_000, 40, scale=3.0)
    got64, want64 = T._erf(x64), special.erf(x64)
    assert np.all(np.abs(got64 - want64) <= np.spacing(np.abs(want64)))  # np.exp vs libm exp


def test_erf_golden_bits():
    x = np.array([i for i, _ in ERF32_GOLDEN], dtype=np.uint32).view(np.float32)
    want = np.array([o for _, o in ERF32_GOLDEN], dtype=np.uint32)
    assert np.array_equal(T._erf(x).view(np.uint32), want)
    assert T._erf(x.reshape(23, 1)).shape == (23, 1)


def test_erf_float64_close_to_math_erf():
    x = np.concatenate([rnd(4000, 41, scale=s) for s in (1e-3, 0.5, 1.5, 4.0)] + [np.linspace(-9, 9, 1001)])
    got = T._erf(x)
    want = np.array([math.erf(v) for v in x])
    assert got.dtype == np.float64
    # Cephes is within a few ulps of the correctly rounded erf.
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_erf_spans_several_blocks():
    x = rnd(3 * T._ERF_BLOCK + 5, 42, scale=2.0).astype(np.float32)
    whole = T._erf(x)
    parts = np.concatenate([T._erf(x[i:i + 1000]) for i in range(0, x.size, 1000)])
    assert np.array_equal(whole.view(np.uint32), parts.view(np.uint32))
    assert T._erf(np.zeros((0, 3), np.float32)).shape == (0, 3)


def test_erf_nan_passes_through_quietly():
    x = np.array([np.nan, -np.nan, np.inf, 2.0, 0.5], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = T._erf(x)
        y = T.gelu(Tensor(x)).data
    assert np.isnan(got[:2]).all() and got[2] == 1.0
    assert np.isnan(y[:2]).all()


def test_import_loads_no_scipy():
    code = "import sys, sws.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

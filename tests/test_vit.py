import platform
import tracemalloc

import numpy as np
import pytest

from sws import tensor as T
from sws.sharing import balanced_plan, build_aux, check_tying
from sws.tensor import Tensor, backward, grad_check
from sws.vit import (
    ROW_BLOCK_BYTES,
    ConfigError,
    LayerParams,
    ModelConfig,
    ModelParams,
    build_model,
    count_params,
    forward_logits,
    is_int,
    reinit_head,
    row_block_size,
)

TINY = ModelConfig(image_size=8, patch_size=4, channels=1, depth=2, width=16, heads=2, classes=3)


def images_for(cfg, batch, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(batch, cfg.channels, cfg.image_size, cfg.image_size)).astype(dtype)


# ---- config -------------------------------------------------------------------


def test_config_derived_quantities():
    cfg = ModelConfig(image_size=224, patch_size=16, channels=3, depth=12, width=768, heads=12, classes=1000)
    assert cfg.grid == 14
    assert cfg.num_patches == 196
    assert cfg.patch_dim == 768
    assert cfg.head_dim == 64
    assert cfg.mlp_dim == 3072


def test_config_rejects_bad_geometry():
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(image_size=10, patch_size=4, channels=1, depth=1, width=8, heads=2, classes=2)
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(image_size=8, patch_size=4, channels=1, depth=1, width=9, heads=2, classes=2)
    with pytest.raises(ConfigError, match="positive"):
        ModelConfig(image_size=8, patch_size=4, channels=1, depth=0, width=8, heads=2, classes=2)


@pytest.mark.parametrize("field, value", [("depth", True), ("width", 16.0), ("heads", 2.5), ("classes", "3"),
                                          ("mlp_ratio", True), ("mlp_ratio", "4")])
def test_config_rejects_non_integer_values(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{**TINY.to_dict(), field: value})


def test_is_int_rejects_bools_and_floats():
    assert is_int(0) and is_int(-3) and is_int(2 ** 70) and is_int(1, 1) and is_int(0, 0)
    assert not any(is_int(v) for v in (True, False, 2.0, 1.5, "2", None, [1]))
    assert not is_int(0, 1) and not is_int(-1, 0)


def test_build_follows_the_shape_table():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=2, depth=3, width=16, heads=2, classes=5, mlp_ratio=2.5)
    shapes = cfg.shapes()
    assert set(shapes) == set(ModelParams.SHARED_FIELDS) | set(LayerParams.FIELDS)
    model = build_model(cfg, seed=0)
    for name, t in model.named_tensors():
        assert t.shape == shapes[name.split(".")[-1]], name
    assert count_params(model) == sum(int(np.prod(shapes[n])) for n in ModelParams.SHARED_FIELDS) \
        + cfg.depth * sum(int(np.prod(shapes[n])) for n in LayerParams.FIELDS)


def test_config_dict_round_trip():
    assert ModelConfig.from_dict(TINY.to_dict()) == TINY


# ---- parameter counts against a shape inventory --------------------------------


def inventory_count(cfg, layer_sets):
    """Closed-form parameter inventory, written out shape by shape."""
    d, hid, npatch = cfg.width, cfg.mlp_dim, cfg.num_patches
    shared = (
        cfg.patch_dim * d + d          # patch projection
        + d                            # class token
        + (1 + npatch) * d             # positional table
        + 2 * d                        # final norm
        + d * cfg.classes + cfg.classes  # head
    )
    per_layer = (
        2 * d                          # ln1
        + d * 3 * d + 3 * d            # qkv
        + d * d + d                    # attn out
        + 2 * d                        # ln2
        + d * hid + hid                # mlp up
        + hid * d + d                  # mlp down
    )
    return shared + layer_sets * per_layer


def test_count_base_config_twelve_layers():
    cfg = ModelConfig(image_size=224, patch_size=16, channels=3, depth=12, width=768, heads=12, classes=1000)
    params = build_model(cfg, seed=0)
    n = count_params(params)
    assert n == inventory_count(cfg, 12)
    assert abs(n - 86_600_000) < 100_000


def test_count_base_config_six_layers():
    cfg = ModelConfig(image_size=224, patch_size=16, channels=3, depth=6, width=768, heads=12, classes=1000)
    n = count_params(build_model(cfg, seed=0))
    assert n == inventory_count(cfg, 6)
    assert abs(n - 44_000_000) < 100_000


def test_count_tied_sixteen_layers_five_stages():
    cfg = ModelConfig(image_size=224, patch_size=16, channels=3, depth=16, width=768, heads=12, classes=1000)
    aux = build_aux(cfg, balanced_plan(16, 5), seed=0)
    unique = count_params(aux, unique_only=True)
    assert unique == inventory_count(cfg, 5)
    assert abs(unique - 36_000_000) < 1_000_000
    assert count_params(aux, unique_only=False) == inventory_count(cfg, 16)


def test_unique_equals_positional_when_untied():
    params = build_model(TINY, seed=1)
    assert count_params(params, True) == count_params(params, False)
    assert len(params.unique_tensors()) == len(list(params.named_tensors()))


# ---- construction determinism ---------------------------------------------------


def test_build_is_bit_deterministic():
    a, b = build_model(TINY, seed=7), build_model(TINY, seed=7)
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na


def test_build_seed_changes_weights():
    a, b = build_model(TINY, seed=7), build_model(TINY, seed=8)
    assert not np.array_equal(a.patch_w.data, b.patch_w.data)


def test_init_statistics():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, depth=2, width=64, heads=4, classes=10)
    params = build_model(cfg, seed=3)
    w = params.layers[0].qkv_w.data
    assert np.abs(w).max() <= 2 * 0.02 + 1e-12
    assert abs(w.std() - 0.02) < 0.004
    assert np.all(params.layers[0].qkv_b.data == 0)
    assert np.all(params.layers[0].ln1_g.data == 1)
    assert np.all(params.final_ln_b.data == 0)
    assert np.all(params.head_b.data == 0)


def test_reinit_head_in_place():
    params = build_model(TINY, seed=1)
    old_patch = params.patch_w
    reinit_head(params, classes=7, seed=9)
    assert params.cfg.classes == 7
    assert params.head_w.shape == (16, 7)
    assert params.head_b.shape == (7,)
    assert params.patch_w is old_patch
    again = build_model(TINY, seed=1)
    reinit_head(again, classes=7, seed=9)
    assert np.array_equal(params.head_w.data, again.head_w.data)


# ---- forward ---------------------------------------------------------------------


def test_logits_shape_dtype_and_determinism():
    params = build_model(TINY, seed=2)
    x = Tensor(images_for(TINY, 5))
    out = forward_logits(params, x)
    assert out.shape == (5, 3)
    assert out.data.dtype == np.float32
    assert np.isfinite(out.data).all()
    assert np.array_equal(out.data, forward_logits(params, x).data)


def test_forward_float64_build():
    params = build_model(TINY, seed=2, dtype=np.float64)
    out = forward_logits(params, Tensor(images_for(TINY, 2, dtype=np.float64)))
    assert out.data.dtype == np.float64


def test_forward_rejects_wrong_image_shape():
    params = build_model(TINY, seed=0)
    with pytest.raises(T.ShapeError):
        forward_logits(params, Tensor(np.zeros((2, 1, 8, 4), dtype=np.float32)))
    with pytest.raises(T.ShapeError):
        forward_logits(params, Tensor(np.zeros((1, 8, 8), dtype=np.float32)))


def test_zero_weights_pass_head_bias_through():
    # With every weight zeroed the encoder is the zero map and the logits
    # collapse to the head bias exactly (uniform attention over zero values).
    params = build_model(TINY, seed=0)
    for _, t in params.unique_tensors():
        t.data = np.zeros_like(t.data)
    bias = np.array([0.5, -1.25, 2.0], dtype=np.float32)
    params.head_b.data = bias.copy()
    out = forward_logits(params, Tensor(images_for(TINY, 4)))
    assert np.array_equal(out.data, np.broadcast_to(bias, (4, 3)))


def permute_patches(images, patch, perm):
    b, c, hh, ww = images.shape
    g = hh // patch
    x = images.reshape(b, c, g, patch, g, patch).transpose(0, 2, 4, 1, 3, 5)
    x = x.reshape(b, g * g, c, patch, patch)[:, perm]
    x = x.reshape(b, g, g, c, patch, patch).transpose(0, 3, 1, 4, 2, 5)
    return x.reshape(b, c, hh, ww)


def test_patch_permutation_invariance_without_positions():
    cfg = ModelConfig(image_size=12, patch_size=4, channels=1, depth=2, width=16, heads=2, classes=3)
    params = build_model(cfg, seed=4)
    params.pos_embed.data = np.zeros_like(params.pos_embed.data)
    imgs = images_for(cfg, 3, seed=11)
    perm = np.array([4, 0, 7, 2, 8, 1, 6, 3, 5])
    base = forward_logits(params, Tensor(imgs)).data
    moved = forward_logits(params, Tensor(permute_patches(imgs, 4, perm))).data
    np.testing.assert_allclose(moved, base, atol=1e-5)


def test_patch_permutation_detected_with_positions():
    cfg = ModelConfig(image_size=12, patch_size=4, channels=1, depth=2, width=16, heads=2, classes=3)
    params = build_model(cfg, seed=4)  # pos_embed left in place
    imgs = images_for(cfg, 3, seed=11)
    perm = np.array([4, 0, 7, 2, 8, 1, 6, 3, 5])
    base = forward_logits(params, Tensor(imgs)).data
    moved = forward_logits(params, Tensor(permute_patches(imgs, 4, perm))).data
    # An order of magnitude above the invariance tolerance used when the
    # positional table is zeroed out.
    assert np.abs(moved - base).max() > 1e-4


def test_parameter_gradients_against_finite_differences():
    params = build_model(TINY, seed=6, dtype=np.float64)
    imgs = Tensor(images_for(TINY, 2, seed=3, dtype=np.float64))
    labels = np.zeros((2, 3))
    labels[[0, 1], [1, 2]] = 1.0

    for name in ("patch_w", "layer00.qkv_w", "layer01.down_w", "head_w", "final_ln_g"):
        holder = dict(params.unique_tensors())[name]

        def f(x, holder=holder):
            logits = forward_logits(_swap_tensor(params, holder, x), imgs)
            return T.soft_cross_entropy(Tensor(labels), T.softmax_rows(logits))

        rep = grad_check(f, holder.data.copy(), max_coords=8, seed=1)
        assert rep.passed, f"{name}: {rep.max_rel_err:.2e}"


def _swap_tensor(params, target, replacement):
    """Copy of params with one parameter Tensor object swapped for another."""
    def pick(t):
        return replacement if t is target else t

    layers = [
        type(lp)(**{n: pick(t) for n, t in lp.named()})
        for lp in params.layers
    ]
    return ModelParams(
        cfg=params.cfg,
        patch_w=pick(params.patch_w), patch_b=pick(params.patch_b),
        cls_token=pick(params.cls_token), pos_embed=pick(params.pos_embed),
        layers=layers,
        final_ln_g=pick(params.final_ln_g), final_ln_b=pick(params.final_ln_b),
        head_w=pick(params.head_w), head_b=pick(params.head_b),
        plan=params.plan,
    )


def test_backward_reaches_every_parameter():
    params = build_model(TINY, seed=5)
    logits = forward_logits(params, Tensor(images_for(TINY, 3)))
    onehot = np.zeros((3, 3), dtype=np.float32)
    onehot[np.arange(3), [0, 2, 1]] = 1.0
    backward(T.soft_cross_entropy(Tensor(onehot), T.softmax_rows(logits)))
    for name, t in params.unique_tensors():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


# ---- graph-free views ------------------------------------------------------------


def test_detach_shares_arrays_and_keeps_tying():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, depth=4, width=16, heads=2, classes=3)
    aux = build_aux(cfg, balanced_plan(4, 2), seed=6)
    frozen = aux.detach()
    assert frozen.plan == aux.plan and frozen.cfg == aux.cfg
    check_tying(frozen)
    assert [id(lp) for lp in frozen.layers] != [id(lp) for lp in aux.layers]
    assert len(frozen.unique_tensors()) == len(aux.unique_tensors())
    for (name, t), (fname, f) in zip(aux.named_tensors(), frozen.named_tensors()):
        assert fname == name
        assert f is not t and f.data is t.data, name
        assert t.requires_grad and not f.requires_grad, name

    x = Tensor(images_for(cfg, 3, seed=2))
    graph = forward_logits(aux, x)
    free = forward_logits(frozen, x)
    assert np.array_equal(free.data, graph.data)
    assert graph._vjp is not None
    assert not free.requires_grad and free._vjp is None and free._parents == ()


def test_row_block_size_fits_the_widest_activation():
    cfg = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)
    per_sample = 17 * 512 * 4  # tokens x mlp_dim x float32
    assert row_block_size(cfg, 4) == ROW_BLOCK_BYTES // per_sample
    assert row_block_size(cfg, 8) == ROW_BLOCK_BYTES // (2 * per_sample)
    wide_qkv = ModelConfig(image_size=16, patch_size=4, channels=1, depth=1, width=128, heads=4, classes=3,
                           mlp_ratio=1.0)
    assert row_block_size(wide_qkv, 4) == ROW_BLOCK_BYTES // (17 * 384 * 4)
    many_tokens = ModelConfig(image_size=32, patch_size=2, channels=1, depth=1, width=16, heads=2, classes=3)
    assert row_block_size(many_tokens, 4) == ROW_BLOCK_BYTES // (257 * 2 * 257 * 4)  # attention scores
    huge = ModelConfig(image_size=64, patch_size=2, channels=1, depth=1, width=1024, heads=4, classes=3)
    assert row_block_size(huge, 4) == 1


def test_a_graph_free_row_block_holds_only_the_arrays_it_will_read():
    import sws.vit as vit

    cfg = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)
    model = build_model(cfg, seed=5).detach()
    rows = row_block_size(cfg, 4)
    x = Tensor(images_for(cfg, rows, seed=1))
    vit._logits(model, x)  # warm-up: one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        vit._logits(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # gelu's input, its CDF and its output are the widest arrays alive at once;
    # erf adds four float64 scratch blocks, and the rest is far narrower.
    widest = rows * 17 * 512 * 4  # tokens x mlp_dim x float32
    bound = 3 * widest + 4 * T._ERF_BLOCK * 8 + (256 << 10)
    assert rows == 22 and peak < bound, f"one row block peaked at {peak} bytes, bound {bound}"


def test_graph_free_forward_runs_in_row_blocks_bit_for_bit(monkeypatch):
    import sws.vit as vit

    cfg = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)
    model = build_model(cfg, seed=5)
    rows = row_block_size(cfg, 4)
    x = Tensor(images_for(cfg, 2 * rows + 7, seed=1))
    # One graph-building pass per block: such a pass never splits, and BLAS may
    # round a whole-batch product differently from the same rows in a block.
    graph = Tensor(np.concatenate([forward_logits(model, Tensor(x.data[i:i + rows])).data
                                   for i in range(0, x.shape[0], rows)]))

    seen = []
    logits = vit._logits

    def spy(params, images):
        seen.append(images.shape[0])
        return logits(params, images)
    monkeypatch.setattr(vit, "_logits", spy)
    free = forward_logits(model.detach(), x)
    assert seen == [rows, rows, 7]
    assert free.data.dtype == graph.data.dtype and free.shape == graph.shape
    assert np.array_equal(free.data.view(np.uint32), graph.data.view(np.uint32))
    assert not free.requires_grad and free._vjp is None

    seen.clear()  # a graph-building forward never splits
    forward_logits(model, x)
    forward_logits(model.detach(), Tensor(x.data, requires_grad=True))
    assert seen == [x.shape[0]] * 2


# ---- paired row blocks ------------------------------------------------------------

PAIRED = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)


@pytest.fixture
def blas(monkeypatch):
    """The (get, set) pair a split forward will use: OpenBLAS's own when numpy
    exposes it, a stand-in otherwise, with two usable CPUs, so the two lanes
    always run."""
    import sws.vit as vit

    pair = vit.openblas_threads()
    if pair is None:
        count = [2]
        pair = (lambda: count[0]), (lambda n: count.__setitem__(0, n))
    monkeypatch.setattr(vit, "openblas_threads", lambda: pair)
    monkeypatch.setattr(vit, "_usable_cpus", lambda: 2)
    return pair


def spy_blocks(monkeypatch, blas=None):
    """Record (rows, thread id, BLAS threads) for every vit._logits call."""
    import threading

    import sws.vit as vit

    seen = []
    logits = vit._logits

    def spy(params, images):
        seen.append((images.shape[0], threading.get_ident(), blas[0]() if blas else None))
        return logits(params, images)
    monkeypatch.setattr(vit, "_logits", spy)
    return seen


@pytest.mark.parametrize("found", [True, False], ids=["openblas-found", "openblas-missing"])
def test_paired_row_blocks_equal_sequential_blocks_and_a_graph_pass(monkeypatch, blas, found):
    import sws.vit as vit

    model = build_model(PAIRED, seed=5)
    rows = row_block_size(PAIRED, 4)
    x = images_for(PAIRED, 4 * rows + 3, seed=2)  # five blocks: two in the caller, three in the helper
    graph = np.concatenate([forward_logits(model, Tensor(x[i:i + rows])).data for i in range(0, len(x), rows)])
    sequential = np.concatenate([vit._logits(model.detach(), Tensor(x[i:i + rows])).data
                                 for i in range(0, len(x), rows)])
    if not found:
        monkeypatch.setattr(vit, "openblas_threads", lambda: None)
    seen = spy_blocks(monkeypatch)
    paired = forward_logits(model.detach(), Tensor(x)).data
    assert sorted(n for n, _, _ in seen) == [3] + [rows] * 4
    for other in (sequential, graph):
        assert paired.dtype == other.dtype and paired.shape == other.shape
        assert np.array_equal(paired.view(np.uint32), other.view(np.uint32))


def test_paired_row_blocks_use_the_helper_thread_with_blas_held_to_one(monkeypatch, blas):
    import threading

    rows = row_block_size(PAIRED, 4)
    before = blas[0]()
    seen = spy_blocks(monkeypatch, blas)
    forward_logits(build_model(PAIRED, seed=5).detach(), Tensor(images_for(PAIRED, 3 * rows, seed=1)))
    threads = {tid for _, tid, _ in seen}
    assert len(seen) == 3 and len(threads) == 2 and threading.get_ident() in threads
    assert [threads for _, _, threads in seen] == [1, 1, 1]
    assert blas[0]() == before


def test_the_helper_thread_runs_the_second_half_from_one_hand_off_per_batch(monkeypatch, blas):
    import threading
    import types

    import sws.vit as vit

    pool, submits = vit._helper(), []

    def submit(*args):
        submits.append(args)
        return pool.submit(*args)
    monkeypatch.setattr(vit, "_helper", lambda: types.SimpleNamespace(submit=submit))
    rows = row_block_size(PAIRED, 4)
    x = images_for(PAIRED, 4 * rows + 3, seed=4)  # five blocks
    model = build_model(PAIRED, seed=5).detach()
    ran, logits = [], vit._logits

    def spy(params, images):
        block = next(k for k in range(5) if np.shares_memory(images.data, x[k * rows:(k + 1) * rows]))
        ran.append((block, threading.get_ident()))
        return logits(params, images)
    monkeypatch.setattr(vit, "_logits", spy)
    for batch in (1, 2):
        ran.clear()
        forward_logits(model, Tensor(x))
        assert len(submits) == batch
        assert sorted(k for k, tid in ran if tid != threading.get_ident()) == [2, 3, 4]
        assert sorted(k for k, _ in ran) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("blocks, cpus", [(2, 2), (4, 1)], ids=["two-blocks", "one-cpu"])
def test_row_blocks_run_in_one_thread_with_two_blocks_or_one_cpu(monkeypatch, blas, blocks, cpus):
    import threading

    import sws.vit as vit

    monkeypatch.setattr(vit, "_usable_cpus", lambda: cpus)
    rows = row_block_size(PAIRED, 4)
    before = blas[0]()
    seen = spy_blocks(monkeypatch, blas)
    forward_logits(build_model(PAIRED, seed=5).detach(), Tensor(images_for(PAIRED, blocks * rows, seed=1)))
    assert [(n, tid, threads) for n, tid, threads in seen] == [(rows, threading.get_ident(), before)] * blocks


@pytest.fixture
def fresh_lookup():
    """openblas_threads looked up anew inside the test and again after it."""
    import sws.vit as vit

    vit.openblas_threads.cache_clear()
    yield vit
    vit.openblas_threads.cache_clear()


@pytest.mark.parametrize("failure", ["cdll-raises", "python-shim"])
def test_a_failed_blas_lookup_runs_the_blocks_in_sequence(monkeypatch, fresh_lookup, failure):
    import importlib
    import threading
    import types

    vit = fresh_lookup
    if failure == "cdll-raises":
        def cdll(path):
            raise OSError(f"{path}: cannot open shared object file")
        monkeypatch.setattr(vit.ctypes, "CDLL", cdll)
    else:  # what numpy 1.26 has under numpy/_core: a .py file, not an extension
        shim = types.SimpleNamespace(__file__="/site-packages/numpy/_core/_multiarray_umath.py")
        monkeypatch.setattr(importlib, "import_module", lambda name: shim)
    assert vit.openblas_threads() is None
    monkeypatch.undo()  # the cached None stays
    monkeypatch.setattr(vit, "_usable_cpus", lambda: 2)
    rows = row_block_size(PAIRED, 4)
    seen = spy_blocks(monkeypatch)
    forward_logits(build_model(PAIRED, seed=5).detach(), Tensor(images_for(PAIRED, 4 * rows, seed=1)))
    assert [(n, tid) for n, tid, _ in seen] == [(rows, threading.get_ident())] * 4


@pytest.mark.parametrize("lane", [None, 0, 1], ids=["no-error", "nan-in-caller-lane", "nan-in-helper-lane"])
def test_split_forward_restores_the_blas_thread_count(blas, lane):
    rows = row_block_size(PAIRED, 4)
    model = build_model(PAIRED, seed=5).detach()
    x = images_for(PAIRED, 3 * rows, seed=3)  # block 0 in the caller, blocks 1 and 2 in the helper
    before = blas[0]()
    if lane is None:
        forward_logits(model, Tensor(x))
    else:
        x[lane * rows] = np.nan  # the first sample of block `lane`
        with pytest.raises(T.NumericError):
            forward_logits(model, Tensor(x))
    assert blas[0]() == before


def test_training_evaluation_and_the_teacher_cache_hold_blas_to_one_thread(monkeypatch, blas):
    from dataclasses import replace

    import sws.vit as vit
    from sws.data import make_synthetic
    from sws.train import TrainConfig, cache_teacher_logits, evaluate, train_model

    train, val = make_synthetic(24, 3, 8, seed=0), make_synthetic(12, 3, 8, seed=1)
    teacher, cfg = build_model(TINY, seed=3), TrainConfig(epochs=2, batch_size=8, alpha=0.5, seed=4)

    def run(cfg):
        student = build_model(TINY, seed=2)
        rows = [(r.epoch, r.train_loss, r.val_loss, r.top1)
                for r in train_model(student, train, val, cfg, teacher=teacher).rows]
        cache = cache_teacher_logits(teacher, train).logits
        return rows, evaluate(student, val), cache, [t.data for _, t in student.named_tensors()]

    before = blas[0]()
    blas[1](2)
    try:
        seen = spy_blocks(monkeypatch, blas)
        held = run(cfg)
        # train_model: the teacher cache, row 0's evaluation, then 3 steps and
        # an evaluation per epoch; then one evaluate and one cache.
        assert [threads for _, _, threads in seen] == [1] * (1 + 1 + 2 * 4 + 1 + 1)
        assert blas[0]() == 2
        seen.clear()
        with pytest.raises(T.NumericError):  # lr 1e30 overflows the second step's logits
            run(replace(cfg, lr=1e30))
        assert len(seen) == 4 and {threads for _, _, threads in seen} == {1}
        assert blas[0]() == 2

        monkeypatch.setattr(vit, "openblas_threads", lambda: None)
        seen.clear()
        free = run(cfg)
        assert [threads for _, _, threads in seen] == [2] * 12
    finally:
        blas[1](before)
    assert free[:2] == held[:2]
    for a, b in zip([free[2], *free[3]], [held[2], *held[3]]):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_import_keeps_the_callers_blas_thread_count():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sws
    import sws.vit as vit

    if vit.openblas_threads() is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    if vit._usable_cpus() < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPUs it may use")
    src = str(Path(sws.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import sws.cli; "
            "from sws.vit import openblas_threads; print(openblas_threads()[0]())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
                         env=env)
    assert out.stdout.strip() == "2"


def test_import_starts_no_thread():
    import subprocess
    import sys
    from pathlib import Path

    import sws

    src = str(Path(sws.__file__).resolve().parents[1])
    code = f"import sys, threading; sys.path.insert(0, {src!r}); import sws.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "1"


def test_openblas_threads_is_none_when_the_library_has_no_thread_controls(monkeypatch, fresh_lookup):
    import types

    vit = fresh_lookup
    monkeypatch.setattr(vit.ctypes, "CDLL", lambda path: types.SimpleNamespace())  # no symbol at all
    assert vit.openblas_threads() is None


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, count, cpus):
    import os

    import sws.vit as vit

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert vit._usable_cpus() == cpus


@pytest.mark.parametrize("batch", [0, 1, 5], ids=["empty", "one-row", "one-block"])
def test_every_graph_free_batch_runs_through_the_row_blocks(monkeypatch, batch):
    import sws.vit as vit

    row_blocks, calls = vit._row_blocks, []

    def spy(params, blocks):
        calls.append([b.shape[0] for b in blocks])
        return row_blocks(params, blocks)
    monkeypatch.setattr(vit, "_row_blocks", spy)
    params = build_model(TINY, seed=2)
    x = images_for(TINY, batch)
    free = forward_logits(params.detach(), Tensor(x))
    assert calls == [[batch]] and free.shape == (batch, TINY.classes)
    assert np.array_equal(free.data, forward_logits(params, Tensor(x)).data)  # a graph pass, not split
    assert calls == [[batch]]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is about glibc's malloc")
def test_evaluate_after_an_idx_split_reuses_its_heap(tmp_path):
    # An IDX split frees nothing large enough to move glibc's mmap threshold, so
    # only the policy applied at import keeps the row blocks off fresh mmaps.
    import subprocess
    import sys
    from pathlib import Path

    import sws

    src = str(Path(sws.__file__).resolve().parents[1])
    code = f"""
import resource, struct, sys
sys.path.insert(0, {src!r})
import numpy as np
from sws.data import check_idx, split
from sws.train import evaluate
from sws.vit import ModelConfig, build_model

n, images, labels = 1280, {str(tmp_path / "images.idx")!r}, {str(tmp_path / "labels.idx")!r}
with open(images, "wb") as fh:
    pixels = np.random.default_rng(0).integers(0, 256, n * 256, np.uint8)
    fh.write(struct.pack(">IIII", 0x803, n, 16, 16) + pixels.tobytes())
with open(labels, "wb") as fh:
    fh.write(struct.pack(">II", 0x801, n) + (np.arange(n) % 10).astype(np.uint8).tobytes())
_, val = split(check_idx(images, labels), 0.8, 1)
model = build_model(ModelConfig(image_size=16, patch_size=4, channels=1, depth=12, width=128, heads=4, classes=10), 1)
evaluate(model, val, 256)  # warm-up
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate(model, val, 256)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 2000, f"{out.stdout.strip()} minor page faults in one evaluate"

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


def test_graph_free_forward_runs_in_row_blocks_bit_for_bit(monkeypatch):
    import sws.vit as vit

    cfg = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)
    model = build_model(cfg, seed=5)
    rows = row_block_size(cfg, 4)
    x = Tensor(images_for(cfg, 2 * rows + 7, seed=1))
    graph = forward_logits(model, x)

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

import numpy as np
import pytest

from sws import tensor as T
from sws.sharing import (
    PlanError,
    StagePlan,
    balanced_plan,
    build_aux,
    center_out_order,
    check_tying,
    custom_plan,
    extract_learngene,
    materialize_untied,
    stage_sets,
)
from sws.tensor import Tensor, backward
from sws.vit import ModelConfig, build_model, count_params, forward_logits

CFG = ModelConfig(image_size=8, patch_size=4, channels=1, depth=4, width=16, heads=2, classes=3)


def batch(cfg, n, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, cfg.channels, cfg.image_size, cfg.image_size)).astype(dtype)


# ---- plans ----------------------------------------------------------------------


def test_plan_basics():
    p = StagePlan((2, 3, 1))
    assert p.num_stages == 3
    assert p.total_layers == 6
    assert p.stage_of_position() == [0, 0, 1, 1, 1, 2]


def test_plan_rejects_bad_sizes():
    with pytest.raises(PlanError):
        StagePlan(())
    with pytest.raises(PlanError):
        StagePlan((2, 0, 1))
    with pytest.raises(PlanError):
        custom_plan([3, -1])


def test_center_out_order():
    assert center_out_order(1) == [0]
    assert center_out_order(2) == [0, 1]
    assert center_out_order(3) == [1, 0, 2]
    assert center_out_order(4) == [1, 2, 0, 3]
    assert center_out_order(5) == [2, 1, 3, 0, 4]
    assert center_out_order(6) == [2, 3, 1, 4, 0, 5]


def test_balanced_plan_reference_values():
    assert balanced_plan(16, 5).stage_sizes == (3, 3, 4, 3, 3)
    assert balanced_plan(12, 6).stage_sizes == (2, 2, 2, 2, 2, 2)
    assert balanced_plan(8, 4).stage_sizes == (2, 2, 2, 2)
    assert balanced_plan(7, 3).stage_sizes == (2, 3, 2)
    assert balanced_plan(9, 4).stage_sizes == (2, 3, 2, 2)
    assert balanced_plan(5, 5).stage_sizes == (1, 1, 1, 1, 1)


def test_balanced_plan_exhaustive_invariants():
    for total in range(1, 25):
        for m in range(1, total + 1):
            sizes = balanced_plan(total, m).stage_sizes
            assert sum(sizes) == total
            assert len(sizes) == m
            assert max(sizes) - min(sizes) <= 1


def test_balanced_plan_rejects_impossible():
    with pytest.raises(PlanError):
        balanced_plan(3, 4)
    with pytest.raises(PlanError):
        balanced_plan(3, 0)


# ---- tied construction ------------------------------------------------------------


def test_build_aux_aliases_within_stages():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    assert aux.layers[0] is aux.layers[1]
    assert aux.layers[2] is aux.layers[3]
    assert aux.layers[0] is not aux.layers[2]
    check_tying(aux)


def test_build_aux_validates_depth():
    with pytest.raises(PlanError, match="plan covers"):
        build_aux(CFG, StagePlan((2, 3)), seed=0)


def test_unique_count_scales_with_stages_not_depth():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    untied = build_model(CFG, seed=1)
    per_layer = sum(t.data.size for _, t in untied.layers[0].named())
    assert count_params(untied) - count_params(aux) == 2 * per_layer


def test_check_tying_detects_broken_alias():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    aux.layers[1] = aux.layers[1].clone()  # silently untie one position
    with pytest.raises(PlanError, match="position 1"):
        check_tying(aux)


def test_check_tying_detects_cross_stage_merge():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    aux.layers[2] = aux.layers[0]
    aux.layers[3] = aux.layers[0]
    with pytest.raises(PlanError, match="share"):
        check_tying(aux)


def test_check_tying_requires_plan():
    with pytest.raises(PlanError, match="no attached plan"):
        check_tying(build_model(CFG, seed=0))


def test_stage_sets_order_and_identity():
    aux = build_aux(CFG, StagePlan((1, 2, 1)), seed=2)
    sets = stage_sets(aux)
    assert len(sets) == 3
    assert sets[0] is aux.layers[0]
    assert sets[1] is aux.layers[1] and sets[1] is aux.layers[2]
    assert sets[2] is aux.layers[3]


# ---- tied gradient equals summed untied gradients ---------------------------------


def tied_untied_pair(cfg, plan, seed):
    """A tied model and an untied clone with identical weights."""
    aux = build_aux(cfg, plan, seed=seed, dtype=np.float64)
    untied = materialize_untied(aux)
    return aux, untied


def scalar_loss(params, imgs):
    logits = forward_logits(params, Tensor(imgs))
    return T.mean_all(T.mul(logits, logits))


def test_tied_gradient_is_sum_over_positions():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, depth=4, width=16, heads=2, classes=3)
    plan = StagePlan((2, 2))
    aux, untied = tied_untied_pair(cfg, plan, seed=3)
    imgs = batch(cfg, 2, seed=5, dtype=np.float64)

    backward(scalar_loss(aux, imgs))
    backward(scalar_loss(untied, imgs))

    stage_of = plan.stage_of_position()
    for m, rep in enumerate(stage_sets(aux)):
        positions = [i for i, s in enumerate(stage_of) if s == m]
        for field, t in rep.named():
            want = sum(getattr(untied.layers[i], field).grad for i in positions)
            denom = max(np.abs(want).max(), 1e-12)
            rel = np.abs(t.grad - want).max() / denom
            assert rel < 1e-10, f"stage {m} {field}: rel {rel:.2e}"


def test_tied_forward_equals_untied_forward():
    aux, untied = tied_untied_pair(CFG, StagePlan((2, 2)), seed=4)
    imgs = batch(CFG, 3, seed=6, dtype=np.float64)
    a = forward_logits(aux, Tensor(imgs)).data
    b = forward_logits(untied, Tensor(imgs)).data
    assert np.array_equal(a, b)


def test_materialize_untied_is_independent():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=4)
    untied = materialize_untied(aux)
    assert untied.plan is None
    assert untied.layers[0] is not untied.layers[1]
    untied.layers[0].qkv_w.data[0, 0] += 1.0
    assert aux.layers[0].qkv_w.data[0, 0] != untied.layers[0].qkv_w.data[0, 0]
    untied.patch_w.data[0, 0] += 1.0
    assert aux.patch_w.data[0, 0] != untied.patch_w.data[0, 0]


# ---- extraction --------------------------------------------------------------------


def test_extract_learngene_contents():
    plan = StagePlan((1, 2, 1))
    aux = build_aux(CFG, plan, seed=7)
    pack = extract_learngene(aux, provenance={"note": "unit"})
    assert pack.num_stages == 3
    assert pack.plan == plan
    assert pack.cfg == CFG
    assert pack.version == 1
    assert pack.provenance == {"note": "unit"}
    for m, rep in enumerate(stage_sets(aux)):
        for field, t in rep.named():
            assert np.array_equal(getattr(pack.layer_sets[m], field).data, t.data)
    assert np.array_equal(pack.head_w.data, aux.head_w.data)


def test_extract_learngene_copies_are_independent():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=7)
    pack = extract_learngene(aux)
    pack.layer_sets[0].qkv_w.data[0, 0] += 5.0
    assert aux.layers[0].qkv_w.data[0, 0] != pack.layer_sets[0].qkv_w.data[0, 0]
    pack.pos_embed.data[0, 0] += 5.0
    assert aux.pos_embed.data[0, 0] != pack.pos_embed.data[0, 0]


def test_extract_learngene_requires_intact_tying():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=7)
    aux.layers[1] = aux.layers[1].clone()
    with pytest.raises(PlanError):
        extract_learngene(aux)


def test_check_tying_rejects_a_plan_for_another_depth():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    del aux.layers[3]
    with pytest.raises(PlanError, match="plan covers 4 positions, model has 3"):
        check_tying(aux)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sws.expand import (
    DescendantSpec,
    ExpandError,
    InitOrder,
    assignment_for,
    assignment_report,
    contiguous_assignment,
    init_descendant,
    pack_from_vanilla,
    random_assignment,
    roundrobin_assignment,
    simple_lg_expand,
    stage_partition,
    write_assignment_csv,
)
from sws.sharing import StagePlan, build_aux, extract_learngene
from sws.tensor import Tensor
from sws.vit import ModelConfig, build_model, forward_logits

CFG = ModelConfig(image_size=8, patch_size=4, channels=1, depth=4, width=16, heads=2, classes=3)
FML = InitOrder(("front", "mid", "last"))


def batch(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32)


def make_pack(cfg=CFG, plan=StagePlan((2, 2)), seed=1):
    return extract_learngene(build_aux(cfg, plan, seed=seed))


# ---- fill order ----------------------------------------------------------------


def test_init_order_parse_and_str():
    o = InitOrder.parse("last-front-mid")
    assert o.priority == ("last", "front", "mid")
    assert str(o) == "last-front-mid"


def test_init_order_rejects_non_permutation():
    with pytest.raises(ExpandError):
        InitOrder(("front", "front", "last"))
    with pytest.raises(ExpandError):
        InitOrder.parse("front-middle-last")


def test_fill_sequence_examples():
    assert FML.fill_sequence(5) == [0, 1, 2, 3, 4]
    assert InitOrder(("mid", "front", "last")).fill_sequence(5) == [2, 0, 1, 3, 4]
    assert InitOrder(("last", "front", "mid")).fill_sequence(5) == [3, 4, 0, 1, 2]
    # Tiny stage counts: the edge groups overlap and deduplicate.
    assert FML.fill_sequence(1) == [0]
    assert InitOrder(("last", "mid", "front")).fill_sequence(2) == [1, 0]
    assert FML.fill_sequence(2) == [0, 1]


@given(st.integers(1, 30))
def test_fill_sequence_is_permutation(m):
    for prio in (("front", "mid", "last"), ("mid", "last", "front"), ("last", "mid", "front")):
        assert sorted(InitOrder(prio).fill_sequence(m)) == list(range(m))


# ---- stage partition -------------------------------------------------------------


def test_partition_worked_example():
    plan = StagePlan((3, 3, 4, 3, 3))
    assert stage_partition(12, plan, FML) == (3, 2, 3, 2, 2)
    assert stage_partition(13, plan, InitOrder(("mid", "front", "last"))) == (3, 2, 4, 2, 2)


def test_partition_hand_enumerated_uniform_plan():
    plan = StagePlan((2, 2, 2, 2))
    assert stage_partition(4, plan, FML) == (1, 1, 1, 1)
    assert stage_partition(5, plan, FML) == (2, 1, 1, 1)
    assert stage_partition(6, plan, FML) == (2, 2, 1, 1)
    assert stage_partition(7, plan, FML) == (2, 2, 2, 1)
    assert stage_partition(8, plan, FML) == (2, 2, 2, 2)
    assert stage_partition(9, plan, FML) == (3, 2, 2, 2)
    assert stage_partition(5, plan, InitOrder(("last", "mid", "front"))) == (1, 1, 2, 1)


def test_partition_identity_at_source_depth():
    for sizes in [(2, 2), (3, 3, 4, 3, 3), (1, 5, 2), (4,)]:
        plan = StagePlan(sizes)
        assert stage_partition(plan.total_layers, plan, FML) == sizes


def test_partition_overshoot_taken_back():
    # Floor-with-minimum overshoots here: floors give (2,1,1,1) for target 4;
    # the spare layer is reclaimed from the back of the fill sequence.
    plan = StagePlan((5, 1, 1, 1))
    assert stage_partition(4, plan, FML) == (1, 1, 1, 1)
    assert stage_partition(5, plan, FML) == (2, 1, 1, 1)


def test_partition_rejects_depth_below_stage_count():
    with pytest.raises(ExpandError, match="needs depth"):
        stage_partition(3, StagePlan((2, 2, 2, 2)), FML)


@st.composite
def plan_and_target(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    target = draw(st.integers(len(sizes), 40))
    return StagePlan(tuple(sizes)), target


@settings(max_examples=200, deadline=None)
@given(plan_and_target())
def test_partition_properties(pt):
    plan, target = pt
    for prio in (("front", "mid", "last"), ("last", "mid", "front"), ("mid", "front", "last")):
        counts = stage_partition(target, plan, InitOrder(prio))
        assert sum(counts) == target
        assert len(counts) == plan.num_stages
        assert min(counts) >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 20))
def test_partition_monotone_for_uniform_plans(size, m, extra):
    # For plans with equal stage sizes, growing the target never shrinks any
    # stage. (Unequal plans can trade a layer between stages as the floor
    # shares cross; see the worked example above.)
    plan = StagePlan((size,) * m)
    lo = stage_partition(m + extra, plan, FML)
    hi = stage_partition(m + extra + 1, plan, FML)
    assert all(h >= l for h, l in zip(hi, lo))


# ---- assignments -----------------------------------------------------------------


def test_contiguous_assignment_expands_counts():
    plan = StagePlan((2, 2))
    assert contiguous_assignment(6, plan, FML) == [0, 0, 0, 1, 1, 1]
    assert contiguous_assignment(5, plan, FML) == [0, 0, 0, 1, 1]


def test_roundrobin_assignment():
    assert roundrobin_assignment(7, 3) == [0, 1, 2, 0, 1, 2, 0]


def test_random_assignment_seeded():
    a = random_assignment(50, 4, seed=3)
    assert set(a) <= {0, 1, 2, 3}
    assert random_assignment(50, 4, seed=3) == a
    assert random_assignment(50, 4, seed=4) != a


def test_assignment_for_dispatch():
    plan = StagePlan((2, 2))
    assert assignment_for(plan, DescendantSpec(depth=4)) == [0, 0, 1, 1]
    assert assignment_for(plan, DescendantSpec(depth=4, strategy="cyclic-roundrobin")) == [0, 1, 0, 1]
    r = assignment_for(plan, DescendantSpec(depth=4, strategy="random", seed=9))
    assert len(r) == 4 and set(r) <= {0, 1}


def test_spec_validation():
    with pytest.raises(ExpandError):
        DescendantSpec(depth=0)
    with pytest.raises(ExpandError):
        DescendantSpec(depth=4, strategy="nearest")


def test_assignment_report_is_one_based():
    assert assignment_report([0, 0, 2]) == [(1, 1), (2, 1), (3, 3)]


def test_assignment_csv_bytes(tmp_path):
    path = tmp_path / "a.csv"
    write_assignment_csv(assignment_report([0, 1]), path)
    assert path.read_bytes() == b"position,learngene_index\r\n1,1\r\n2,2\r\n"


# ---- descendant construction --------------------------------------------------------


def test_identity_expansion_reproduces_source_logits():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=5)
    pack = extract_learngene(aux)
    des, report = init_descendant(pack, DescendantSpec(depth=4))
    assert [m for _, m in report] == [1, 1, 2, 2]
    for i in range(2):
        x = Tensor(batch(CFG, 4, seed=20 + i))
        assert np.array_equal(forward_logits(aux, x).data, forward_logits(des, x).data)


def test_descendant_structure_and_ownership():
    pack = make_pack()
    des, _ = init_descendant(pack, DescendantSpec(depth=6))
    assert des.cfg.depth == 6
    assert des.plan is None
    # Positions never alias each other or the pack, even within one stage.
    ids = [id(lp) for lp in des.layers]
    assert len(set(ids)) == 6
    des.layers[0].qkv_w.data[0, 0] += 1.0
    assert des.layers[1].qkv_w.data[0, 0] != des.layers[0].qkv_w.data[0, 0]
    assert pack.layer_sets[0].qkv_w.data[0, 0] != des.layers[0].qkv_w.data[0, 0]
    des.pos_embed.data[0, 0] += 1.0
    assert pack.pos_embed.data[0, 0] != des.pos_embed.data[0, 0]


def test_descendant_head_copied_when_classes_match():
    pack = make_pack()
    des, _ = init_descendant(pack, DescendantSpec(depth=5, classes=3))
    assert np.array_equal(des.head_w.data, pack.head_w.data)


def test_descendant_head_reinit_on_class_change():
    pack = make_pack()
    des, _ = init_descendant(pack, DescendantSpec(depth=5, classes=7, seed=42))
    assert des.cfg.classes == 7
    assert des.head_w.shape == (16, 7)
    assert np.all(des.head_b.data == 0)
    again, _ = init_descendant(pack, DescendantSpec(depth=5, classes=7, seed=42))
    assert np.array_equal(des.head_w.data, again.head_w.data)
    other, _ = init_descendant(pack, DescendantSpec(depth=5, classes=7, seed=43))
    assert not np.array_equal(des.head_w.data, other.head_w.data)


@pytest.mark.parametrize("classes", [0, -3, 2.0, True, "3"])
def test_descendant_spec_rejects_bad_classes(classes):
    with pytest.raises(ExpandError, match="classes"):
        DescendantSpec(depth=5, classes=classes)


def test_descendant_depth_below_stages_rejected():
    pack = make_pack(plan=StagePlan((2, 2)))
    with pytest.raises(ExpandError):
        init_descendant(pack, DescendantSpec(depth=1))
    # Round-robin has no such floor.
    des, _ = init_descendant(pack, DescendantSpec(depth=1, strategy="cyclic-roundrobin"))
    assert des.cfg.depth == 1


def test_random_strategy_descendant():
    pack = make_pack()
    des, report = init_descendant(pack, DescendantSpec(depth=8, strategy="random", seed=5))
    sources = [m for _, m in report]
    assert set(sources) <= {1, 2}
    assert len(des.layers) == 8


# ---- vanilla baseline ----------------------------------------------------------------


def test_pack_from_vanilla_one_layer_stages():
    model = build_model(CFG, seed=2)
    pack = pack_from_vanilla(model)
    assert pack.plan.stage_sizes == (1, 1, 1, 1)
    assert pack.provenance["source"] == "vanilla"
    for i, lp in enumerate(model.layers):
        assert np.array_equal(pack.layer_sets[i].qkv_w.data, lp.qkv_w.data)


def test_pack_from_vanilla_rejects_tied():
    aux = build_aux(CFG, StagePlan((2, 2)), seed=1)
    with pytest.raises(ExpandError, match="tying plan"):
        pack_from_vanilla(aux)


def test_simple_lg_identity_matches_source():
    model = build_model(CFG, seed=6)
    des, report = simple_lg_expand(model, DescendantSpec(depth=4))
    assert [m for _, m in report] == [1, 2, 3, 4]
    x = Tensor(batch(CFG, 3, seed=30))
    assert np.array_equal(forward_logits(model, x).data, forward_logits(des, x).data)


def test_simple_lg_expansion_repeats_layers():
    model = build_model(CFG, seed=6)
    des, report = simple_lg_expand(model, DescendantSpec(depth=6))
    assert len(des.layers) == 6
    # (6 * 1) // 4 floors to 1 everywhere, spares go to the front groups.
    assert [m for _, m in report] == [1, 1, 2, 2, 3, 4]

import tracemalloc
import weakref

import numpy as np
import pytest

from sws import tensor as T
from sws.data import make_synthetic, split
from sws.rng import derive_seed
from sws.tensor import Tensor, backward
from sws.train import (
    AdamW,
    DivergenceError,
    LogitCache,
    Metrics,
    EpochRow,
    StaleCacheError,
    TrainConfig,
    TrainError,
    cache_teacher_logits,
    evaluate,
    loss_cls,
    loss_distill,
    loss_total,
    lr_at,
    one_hot,
    train_model,
)
from sws.vit import ModelConfig, build_model, forward_logits

CFG = ModelConfig(image_size=8, patch_size=4, channels=1, depth=1, width=8, heads=2, classes=3)


def tiny_data(n=24, seed=0):
    return make_synthetic(n, 3, 8, seed=seed)


def logits_pair(seed=0, n=6, classes=3):
    rng = np.random.default_rng(seed)
    student = Tensor(rng.standard_normal((n, classes)), requires_grad=True)
    teacher = Tensor(rng.standard_normal((n, classes)), requires_grad=True)
    return student, teacher


# ---- config validation ------------------------------------------------------------


def test_train_config_validation():
    TrainConfig(epochs=0, batch_size=1)  # minimal valid
    with pytest.raises(TrainError):
        TrainConfig(epochs=-1, batch_size=4)
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=4, alpha=1.5)
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=4, tau=0.0)
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=4, schedule="linear")
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=4, betas=(0.9, 1.0))
    with pytest.raises(TrainError):
        TrainConfig(epochs=1, batch_size=4, grad_clip=0.0)


# ---- losses -----------------------------------------------------------------------



@pytest.mark.parametrize("field, value", [
    ("epochs", 1.5), ("epochs", True), ("batch_size", 2.0), ("eval_batch_size", 0), ("seed", 1.0),
    ("betas", 0.9), ("betas", [0.9]), ("betas", ["a", "b"]), ("lr", "fast"), ("alpha", None),
    ("tau_square_scaling", 1), ("grad_clip", "1"),
])
def test_train_config_rejects_wrong_types(field, value):
    with pytest.raises(TrainError, match=field):
        TrainConfig(**{"epochs": 1, "batch_size": 4, field: value})


def test_train_config_takes_betas_as_a_list():
    assert TrainConfig(epochs=1, batch_size=4, betas=[0.8, 0.9]).betas == (0.8, 0.9)

def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])
    with pytest.raises(TrainError):
        one_hot(np.array([0, 3]), 3)


def test_loss_cls_matches_manual():
    z = np.random.default_rng(1).standard_normal((5, 4))
    labels = np.array([0, 1, 2, 3, 1])
    got = loss_cls(Tensor(z), labels).item()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.log(p[np.arange(5), labels]).mean()
    assert abs(got - want) < 1e-12


def test_distill_of_self_is_teacher_entropy():
    _, teacher = logits_pair(2)
    got = loss_distill(teacher, teacher, tau=1.0).item()
    p = np.exp(teacher.data - teacher.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    entropy = -(p * np.log(p)).sum(axis=1).mean()
    assert abs(got - entropy) < 1e-6


def test_distill_detaches_teacher():
    student, teacher = logits_pair(3)
    backward(loss_distill(student, teacher, tau=2.0))
    assert student.grad is not None
    assert teacher.grad is None


def test_distill_tau_square_scaling():
    student, teacher = logits_pair(4)
    plain = loss_distill(student, teacher, tau=2.0, tau_square_scaling=False).item()
    scaled = loss_distill(student, teacher, tau=2.0, tau_square_scaling=True).item()
    assert abs(scaled - 4.0 * plain) < 1e-12


def test_distill_temperature_softens():
    student, teacher = logits_pair(5)
    # tau -> infinity pushes both distributions to uniform: CE -> log K.
    big = loss_distill(student, teacher, tau=1e6).item()
    assert abs(big - np.log(3)) < 1e-6


def test_loss_total_endpoints_are_exact():
    student, teacher = logits_pair(6)
    labels = np.array([0, 1, 2, 0, 1, 2])
    at0 = loss_total(student, labels, teacher, TrainConfig(epochs=1, batch_size=4, alpha=0.0))
    assert at0.item() == loss_cls(student, labels).item()
    at1 = loss_total(student, labels, teacher, TrainConfig(epochs=1, batch_size=4, alpha=1.0, tau=1.5))
    assert at1.item() == loss_distill(student, teacher, tau=1.5).item()


def test_loss_total_alpha_zero_never_reads_teacher():
    student, _ = logits_pair(7)
    labels = np.array([0, 1, 2, 0, 1, 2])
    out = loss_total(student, labels, None, TrainConfig(epochs=1, batch_size=4, alpha=0.0))
    assert np.isfinite(out.item())


def test_loss_total_requires_teacher_when_mixing():
    student, _ = logits_pair(8)
    with pytest.raises(TrainError):
        loss_total(student, np.array([0] * 6), None, TrainConfig(epochs=1, batch_size=4, alpha=0.5))


def test_loss_total_mixes_linearly():
    student, teacher = logits_pair(9)
    labels = np.array([2, 0, 1, 1, 0, 2])
    cfg = TrainConfig(epochs=1, batch_size=4, alpha=0.3, tau=2.0)
    got = loss_total(student, labels, teacher, cfg).item()
    want = 0.7 * loss_cls(student, labels).item() + 0.3 * loss_distill(student, teacher, tau=2.0).item()
    assert abs(got - want) < 1e-7


# ---- optimizer ---------------------------------------------------------------------


def ref_adamw_scalar(x0, grads, lr, b1, b2, eps, wd):
    m = v = 0.0
    x = x0
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * x
    return x


def test_adamw_matches_scalar_reference():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.1, betas=(0.9, 0.999),
                      eps_opt=1e-8, weight_decay=0.05, schedule="constant")
    p = Tensor(np.array([1.5], dtype=np.float64), requires_grad=True)
    opt = AdamW([("x", p)], cfg)
    grads = []
    for _ in range(25):
        g = 2.0 * p.data  # d/dx of x^2
        grads.append(float(g[0]))
        p.grad = g.copy()
        opt.step(cfg.lr)
        opt.zero_grad()
    want = ref_adamw_scalar(1.5, grads, 0.1, 0.9, 0.999, 1e-8, 0.05)
    assert abs(float(p.data[0]) - want) < 1e-12
    assert abs(float(p.data[0])) < 0.5  # actually made progress on x^2


def test_adamw_zero_grad_applies_pure_decay():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.01, weight_decay=0.1)
    p = Tensor(np.array([2.0, -3.0], dtype=np.float64), requires_grad=True)
    opt = AdamW([("x", p)], cfg)
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    opt.step(cfg.lr)
    np.testing.assert_array_equal(p.data, before - 0.01 * 0.1 * before)


def test_adamw_missing_grad_treated_as_zero():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.01, weight_decay=0.0)
    p = Tensor(np.array([4.0]), requires_grad=True)
    opt = AdamW([("x", p)], cfg)
    opt.step(cfg.lr)  # no .grad set at all
    np.testing.assert_array_equal(p.data, [4.0])


def test_adamw_dedups_aliased_parameters():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.1, weight_decay=0.0, schedule="constant")
    shared = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = AdamW([("a.w", shared), ("b.w", shared)], cfg)
    assert len(opt.params) == 1
    assert opt.params[0][0] == "a.w"
    shared.grad = np.array([0.5])
    opt.step(cfg.lr)
    single = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt2 = AdamW([("w", single)], cfg)
    single.grad = np.array([0.5])
    opt2.step(cfg.lr)
    np.testing.assert_array_equal(shared.data, single.data)


def test_adamw_rejects_nonfinite_gradient():
    cfg = TrainConfig(epochs=1, batch_size=1)
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW([("layer00.qkv_w", p)], cfg)
    p.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="layer00.qkv_w"):
        opt.step(0.1)


def test_adamw_global_norm_clip():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.1, weight_decay=0.0, grad_clip=1.0)
    a = Tensor(np.array([1.0, 1.0], dtype=np.float64), requires_grad=True)
    b = Tensor(np.array([1.0, 1.0], dtype=np.float64), requires_grad=True)
    opt = AdamW([("a", a), ("b", b)], cfg)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])  # global norm 5 -> factor 0.2
    opt.step(cfg.lr)

    cfg2 = TrainConfig(epochs=1, batch_size=1, lr=0.1, weight_decay=0.0, grad_clip=None)
    a2 = Tensor(np.array([1.0, 1.0], dtype=np.float64), requires_grad=True)
    b2 = Tensor(np.array([1.0, 1.0], dtype=np.float64), requires_grad=True)
    opt2 = AdamW([("a", a2), ("b", b2)], cfg2)
    a2.grad = np.array([0.6, 0.0])
    b2.grad = np.array([0.0, 0.8])
    opt2.step(cfg2.lr)
    np.testing.assert_allclose(a.data, a2.data, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b.data, b2.data, rtol=0, atol=1e-15)


def test_adamw_no_clip_below_threshold():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.1, weight_decay=0.0, grad_clip=10.0)
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = AdamW([("p", p)], cfg)
    p.grad = np.array([0.5])
    opt.step(cfg.lr)
    q = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt2 = AdamW([("q", q)], TrainConfig(epochs=1, batch_size=1, lr=0.1, weight_decay=0.0))
    q.grad = np.array([0.5])
    opt2.step(0.1)
    np.testing.assert_array_equal(p.data, q.data)


def test_lr_schedule():
    cfg = TrainConfig(epochs=1, batch_size=1, lr=0.4, schedule="cosine")
    assert lr_at(cfg, 0, 100) == 0.4
    assert abs(lr_at(cfg, 50, 100) - 0.2) < 1e-15
    assert lr_at(cfg, 99, 100) < 0.001
    const = TrainConfig(epochs=1, batch_size=1, lr=0.4, schedule="constant")
    assert lr_at(const, 77, 100) == 0.4


# ---- teacher cache -------------------------------------------------------------------


def test_cache_matches_direct_forward():
    data = tiny_data()
    teacher = build_model(CFG, seed=1)
    cache = cache_teacher_logits(teacher, data, batch_size=7)
    assert cache.logits.shape == (24, 3)
    assert cache.dataset_hash == data.content_hash
    full = forward_logits(teacher, Tensor(data.images)).data
    np.testing.assert_allclose(cache.logits, full, atol=1e-6)


def test_cache_check_rejects_other_dataset():
    data, other = tiny_data(seed=0), tiny_data(seed=5)
    teacher = build_model(CFG, seed=1)
    cache = cache_teacher_logits(teacher, data)
    cache.check(data)
    with pytest.raises(StaleCacheError, match="hash"):
        cache.check(other)


def test_cache_check_rejects_row_mismatch():
    data = tiny_data()
    cache = LogitCache(logits=np.zeros((10, 3), np.float32), dataset_hash=data.content_hash)
    with pytest.raises(StaleCacheError, match="rows"):
        cache.check(data)


def test_cache_check_rejects_a_class_count_mismatch():
    data = tiny_data()
    cache = LogitCache(logits=np.zeros((len(data), 5), np.float32), dataset_hash=data.content_hash)
    with pytest.raises(StaleCacheError, match="teacher cache has 5 classes, data has 3"):
        cache.check(data)


def test_a_live_teacher_with_other_classes_is_rejected_before_any_forward(monkeypatch):
    import sws.train as train

    calls = []

    def spy(params, images):
        calls.append(params.cfg.classes)
        return forward_logits(params, images)
    monkeypatch.setattr(train, "forward_logits", spy)
    tr, va = split(tiny_data(), 0.75, seed=2)
    teacher = build_model(ModelConfig(**{**CFG.to_dict(), "classes": 5}), seed=9)
    with pytest.raises(StaleCacheError, match="teacher model has 5 classes, data has 3"):
        train_model(build_model(CFG, seed=3), tr, va, TrainConfig(epochs=1, batch_size=8, alpha=0.9), teacher)
    assert calls == []


def test_training_with_cache_matches_live_teacher():
    data = tiny_data(n=32)
    tr, va = split(data, 0.75, seed=2)
    teacher = build_model(CFG, seed=9)
    cache = cache_teacher_logits(teacher, tr)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, alpha=0.9, tau=1.0, seed=4)

    a = build_model(CFG, seed=3)
    ma = train_model(a, tr, va, cfg, teacher=cache)
    b = build_model(CFG, seed=3)
    mb = train_model(b, tr, va, cfg, teacher=teacher)

    for ra, rb in zip(ma.rows, mb.rows):
        assert ra.train_loss == rb.train_loss or abs(ra.train_loss - rb.train_loss) < 1e-6
    for (na, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_allclose(ta.data, tb.data, atol=1e-6, err_msg=na)


def test_a_live_teacher_is_forwarded_once_in_natural_order(monkeypatch):
    # A teacher model is turned into its logit cache before the first step:
    # one pass over the train split in batches of 128, not one per step.
    import sws.train as train

    tr, va = split(tiny_data(n=300), 0.75, seed=2)
    teacher = build_model(ModelConfig(**{**CFG.to_dict(), "depth": 2}), seed=9)
    teacher_batches = []

    def spy(params, images):
        if params.cfg.depth == teacher.cfg.depth:
            teacher_batches.append(images.data)
        return forward_logits(params, images)
    monkeypatch.setattr(train, "forward_logits", spy)
    train_model(build_model(CFG, seed=3), tr, va, TrainConfig(epochs=2, batch_size=32, alpha=0.5, seed=4), teacher)

    assert len(teacher_batches) == -(-len(tr) // 128) == 2
    assert np.array_equal(np.concatenate(teacher_batches), tr.images)


# ---- evaluate -------------------------------------------------------------------------


def test_evaluate_matches_manual_recompute():
    data = tiny_data()
    model = build_model(CFG, seed=2)
    loss, top1 = evaluate(model, data, batch_size=7)  # uneven batches
    logits = forward_logits(model, Tensor(data.images)).data
    want_top1 = float((logits.argmax(axis=1) == data.labels).mean())
    want_loss = loss_cls(Tensor(logits), data.labels).item()
    assert top1 == want_top1
    assert abs(loss - want_loss) < 1e-6


def test_evaluate_builds_no_graph_and_matches_a_graph_forward(monkeypatch):
    import sws.train as train

    data = tiny_data()
    model = build_model(CFG, seed=2)
    outputs = []

    def recording(params, images):
        outputs.append(forward_logits(params, images))
        return outputs[-1]
    monkeypatch.setattr(train, "forward_logits", recording)
    loss, top1 = evaluate(model, data, batch_size=7)
    monkeypatch.undo()

    assert len(outputs) == 4
    assert all(not out.requires_grad and out._vjp is None for out in outputs)
    assert all(t.grad is None for _, t in model.named_tensors())
    total, hits = 0.0, 0
    for images, labels, _ in train.batch_iter(data, 7):
        logits = forward_logits(model, Tensor(images))
        assert logits.requires_grad
        total += loss_cls(logits, labels).item() * len(labels)
        hits += int((np.argmax(logits.data, axis=-1) == labels).sum())
    assert (loss, top1) == (total / len(data), hits / len(data))


def test_evaluate_memory_does_not_grow_with_the_batch():
    cfg = ModelConfig(image_size=16, patch_size=4, channels=1, depth=2, width=128, heads=4, classes=10)
    model, data = build_model(cfg, seed=1), make_synthetic(256, 10, 16, seed=2)
    activation = 256 * 17 * 512 * 4  # one (256, 17, 512) float32 MLP activation of the whole batch
    tracemalloc.start()
    try:
        evaluate(model, data, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * activation


# ---- the loop ---------------------------------------------------------------------------


def test_epochs_zero_gives_one_no_tune_row():
    data = tiny_data()
    tr, va = split(data, 0.5, seed=1)
    model = build_model(CFG, seed=5)
    before = {n: t.data.copy() for n, t in model.named_tensors()}
    m = train_model(model, tr, va, TrainConfig(epochs=0, batch_size=8, alpha=0.0))
    assert len(m.rows) == 1
    row = m.no_tune
    assert row.epoch == 0 and row.train_loss is None
    val = evaluate(model, va, batch_size=256)
    assert (row.val_loss, row.top1) == val
    for n, t in model.named_tensors():
        assert np.array_equal(t.data, before[n]), n  # untouched weights


def test_training_decreases_loss_and_is_deterministic():
    data = tiny_data(n=48)
    tr, va = split(data, 0.75, seed=3)

    def run():
        model = build_model(CFG, seed=6)
        metrics = train_model(model, tr, va, TrainConfig(epochs=3, batch_size=8, lr=2e-3, alpha=0.0, seed=7))
        return model, metrics

    m1, met1 = run()
    m2, met2 = run()
    assert met1.final.train_loss < met1.rows[1].train_loss  # headed downhill
    assert len(met1.rows) == 4
    for r1, r2 in zip(met1.rows, met2.rows):
        assert (r1.epoch, r1.train_loss, r1.val_loss, r1.top1) == (r2.epoch, r2.train_loss, r2.val_loss, r2.top1)
    for (n, t1), (_, t2) in zip(m1.named_tensors(), m2.named_tensors()):
        assert np.array_equal(t1.data, t2.data), n


def test_train_model_matches_manual_loop():
    # One epoch of train_model against the same primitives composed by hand:
    # same shuffle stream, schedule, optimizer and losses.
    data = tiny_data(n=24)
    tr, va = split(data, 0.75, seed=4)
    cfg = TrainConfig(epochs=1, batch_size=6, lr=1e-3, alpha=0.0, seed=11)

    auto = build_model(CFG, seed=8)
    train_model(auto, tr, va, cfg)

    manual = build_model(CFG, seed=8)
    from sws.data import batch_iter
    opt = AdamW(list(manual.named_tensors()), cfg)
    steps_per_epoch = (len(tr) + cfg.batch_size - 1) // cfg.batch_size
    step = 0
    for images, labels, _ in batch_iter(tr, cfg.batch_size, derive_seed(cfg.seed, 1)):
        loss = loss_cls(forward_logits(manual, Tensor(images)), labels)
        backward(loss)
        opt.step(lr_at(cfg, step, cfg.epochs * steps_per_epoch))
        opt.zero_grad()
        step += 1
    for (n, ta), (_, tm) in zip(auto.named_tensors(), manual.named_tensors()):
        assert np.array_equal(ta.data, tm.data), n


@pytest.mark.parametrize("teacher_kind", ["none", "cache", "live"])
def test_no_step_graph_outlives_its_step(monkeypatch, teacher_kind):
    # Each step's graph must be freed by reference counting once the step
    # ends: no later forward, training or evaluation, runs while an earlier
    # step's loss or logits (and so its graph) is still alive.
    import sws.train as train

    data = tiny_data(n=40)
    tr, va = split(data, 0.75, seed=2)
    teacher = build_model(CFG, seed=9)
    teacher = {"none": None, "cache": cache_teacher_logits(teacher, tr), "live": teacher}[teacher_kind]
    cfg = TrainConfig(epochs=2, batch_size=8, alpha=0.0 if teacher is None else 0.5, seed=3)
    model = build_model(CFG, seed=4)
    step_logits, finished, forwards = [], [], []

    def checking_forward(params, images):
        forwards.append(len(finished))
        assert [r for r in finished if r() is not None] == []
        out = forward_logits(params, images)
        if out.requires_grad:
            step_logits.append(weakref.ref(out))
        return out

    def recording_backward(loss):
        backward(loss)
        finished.extend([weakref.ref(loss), step_logits.pop()])

    monkeypatch.setattr(train, "forward_logits", checking_forward)
    monkeypatch.setattr(train, "backward", recording_backward)
    train_model(model, tr, va, cfg, teacher)

    steps = 2 * -(-len(tr) // 8)
    assert len(finished) == 2 * steps and not step_logits
    assert forwards.count(0) >= 2 and max(forwards) == 2 * steps  # checked before steps 1.. and the last eval


def test_train_model_validations():
    data = tiny_data()
    tr, va = split(data, 0.5, seed=1)
    model = build_model(CFG, seed=0)
    with pytest.raises(TrainError, match="teacher"):
        train_model(model, tr, va, TrainConfig(epochs=1, batch_size=8, alpha=0.5))
    stale = LogitCache(logits=np.zeros((len(tr), 3), np.float32), dataset_hash=0)
    with pytest.raises(StaleCacheError):
        train_model(model, tr, va, TrainConfig(epochs=1, batch_size=8, alpha=0.5), teacher=stale)
    wrong = build_model(ModelConfig(image_size=8, patch_size=4, channels=1, depth=1, width=8, heads=2, classes=5), seed=0)
    with pytest.raises(TrainError, match="classes"):
        train_model(wrong, tr, va, TrainConfig(epochs=1, batch_size=8, alpha=0.0))


def test_divergence_reported_with_nan_weights():
    data = tiny_data()
    tr, va = split(data, 0.5, seed=1)
    model = build_model(CFG, seed=0)
    model.patch_w.data[0, 0] = np.nan
    with pytest.raises((DivergenceError, T.NumericError)):
        train_model(model, tr, va, TrainConfig(epochs=1, batch_size=8, alpha=0.0))


# ---- metrics CSV ---------------------------------------------------------------------


def test_metrics_csv_exact_bytes(tmp_path):
    m = Metrics(rows=[
        EpochRow(0, None, 1.234567891, 0.25, 3.25),
        EpochRow(1, 0.5, 1.0, 0.75, 4.5),
    ])
    path = tmp_path / "metrics.csv"
    m.write_csv(path)
    assert path.read_bytes() == (
        b"epoch,train_loss,val_loss,top1,seconds\n"
        b"0,,1.234568,0.250000,0.000\n"
        b"1,0.500000,1.000000,0.750000,0.000\n"
    )

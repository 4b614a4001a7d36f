"""Training: distillation and classification losses, AdamW, the epoch loop.

The combined objective is (1 - alpha) * classification + alpha * distillation,
where distillation is the soft cross entropy between the temperature-softened
teacher and student distributions and the teacher side never receives
gradients. alpha = 0 short-circuits to plain classification and never reads
teacher logits, which is the default for fine-tuning descendants.

Teacher logits come from a LogitCache computed once over the train split and
keyed by the dataset's content hash; a live teacher model handed to
train_model becomes that cache before the first step.

All shuffling is SplitMix64-driven, so a (seed, config, data) triple fixes the
whole run. Wall-clock time per epoch stays in Metrics.rows; the metrics CSV's
seconds column is always 0.000, so replayed runs give byte-identical files.

train_model, evaluate and cache_teacher_logits run OpenBLAS on one thread, whose
second would wait for a core another process holds (vit.one_blas_thread).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import tensor as T
from .data import Dataset, batch_iter
from .rng import derive_seed
from .tensor import Tensor, backward
from .vit import (FINITE, INT, MAX_SIZE, NUMBER, ModelParams, check, forward_logits, is_int, is_real,
                  one_blas_thread, unique_named)

SCHEDULES = ("constant", "cosine")


class TrainError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Loss or gradients went non-finite; message says where."""


class StaleCacheError(RuntimeError):
    """Teacher logits (a cache or a live model) do not fit the data."""


# The betas' range is checked once they are a tuple, so its message shows the tuple.
TRAIN_RULES = {
    "epochs": ((f"an integer from 0 to {MAX_SIZE}", lambda v: is_int(v, 0) and v <= MAX_SIZE),),
    "batch_size": (("an integer >= 1", lambda v: is_int(v, 1)),),
    "eval_batch_size": (("an integer >= 1", lambda v: is_int(v, 1)),),
    "seed": (INT,),
    "lr": (NUMBER, ("> 0", lambda v: v > 0.0), FINITE),
    "alpha": (NUMBER, ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)),
    "tau": (NUMBER, ("finite and > 0", lambda v: 0.0 < v < np.inf)),
    "eps_opt": (NUMBER, ("> 0", lambda v: v > 0.0), FINITE),
    "weight_decay": (NUMBER, (">= 0", lambda v: v >= 0.0), FINITE),
    "betas": (("two numbers", lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_real, v))),),
    "tau_square_scaling": (("true or false", lambda v: isinstance(v, bool)),),
    "grad_clip": (("a number or null", lambda v: v is None or is_real(v)),
                  ("finite and positive when set", lambda v: v is None or 0.0 < v < np.inf)),
    "schedule": ((f"one of {SCHEDULES}", lambda v: v in SCHEDULES),),
}


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float = 1e-3
    alpha: float = 0.9
    tau: float = 1.0
    tau_square_scaling: bool = False
    betas: tuple[float, float] = (0.9, 0.999)
    eps_opt: float = 1e-8
    weight_decay: float = 0.05
    schedule: str = "cosine"
    grad_clip: float | None = None
    seed: int = 0
    eval_batch_size: int = 256

    def __post_init__(self):
        check(vars(self), TRAIN_RULES, TrainError)
        self.betas = tuple(self.betas)
        if not (0.0 <= self.betas[0] < 1.0 and 0.0 <= self.betas[1] < 1.0):
            raise TrainError(f"betas must be in [0, 1), got {self.betas}")


# ---- losses ------------------------------------------------------------------


def one_hot(labels: np.ndarray, classes: int, dtype=np.float32) -> np.ndarray:
    if labels.min() < 0 or labels.max() >= classes:
        raise TrainError(f"labels outside [0, {classes})")
    out = np.zeros((labels.shape[0], classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def loss_cls(student_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy against one-hot labels."""
    targets = Tensor(one_hot(labels, student_logits.shape[-1], dtype=student_logits.data.dtype.type))
    return T.soft_cross_entropy(targets, T.softmax_rows(student_logits))


def loss_distill(student_logits: Tensor, teacher_logits: Tensor, tau: float = 1.0,
                 tau_square_scaling: bool = False) -> Tensor:
    """Soft cross entropy between softened teacher and student distributions.

    The teacher side is detached, so gradients reach the student only. With
    tau_square_scaling the loss is multiplied by tau**2, which keeps its
    gradient scale comparable across temperatures; off by default.
    """
    p_teacher = T.softmax_rows(T.scale(teacher_logits.detach(), 1.0 / tau))
    q_student = T.softmax_rows(T.scale(student_logits, 1.0 / tau))
    out = T.soft_cross_entropy(p_teacher, q_student)
    if tau_square_scaling:
        out = T.scale(out, tau * tau)
    return out


def loss_total(student_logits: Tensor, labels: np.ndarray, teacher_logits: Tensor | None,
               cfg: TrainConfig) -> Tensor:
    """(1 - alpha) * classification + alpha * distillation.

    alpha = 0 is exactly the classification loss (the distillation term is
    never built); alpha = 1 is exactly the distillation loss.
    """
    if cfg.alpha > 0.0 and teacher_logits is None:
        raise TrainError("alpha > 0 requires teacher logits")
    if cfg.alpha == 0.0:
        return loss_cls(student_logits, labels)
    dist = loss_distill(student_logits, teacher_logits, cfg.tau, cfg.tau_square_scaling)
    if cfg.alpha == 1.0:
        return dist
    cls = loss_cls(student_logits, labels)
    return T.add(T.scale(cls, 1.0 - cfg.alpha), T.scale(dist, cfg.alpha))


# ---- optimizer ---------------------------------------------------------------


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay.

    One state slot per parameter object: tied models, where several positions
    alias one tensor, therefore keep exactly one (m, v) pair per storage and
    the update sees the summed gradient the backward pass accumulated there.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], cfg: TrainConfig):
        self.params = unique_named(named_params)
        self.cfg = cfg
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def _grads(self) -> list[np.ndarray]:
        out = []
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in {name} at step {self.step_count + 1}")
            out.append(g)
        return out

    def step(self, lr: float) -> None:
        cfg = self.cfg
        grads = self._grads()
        if cfg.grad_clip is not None:
            total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
            if total > cfg.grad_clip:
                factor = cfg.grad_clip / total
                grads = [g * g.dtype.type(factor) for g in grads]
        self.step_count += 1
        b1, b2 = cfg.betas
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for (name, p), m, v, g in zip(self.params, self._m, self._v, grads):
            dt = p.data.dtype.type
            m *= dt(b1)
            m += dt(1.0 - b1) * g
            v *= dt(b2)
            v += dt(1.0 - b2) * (g * g)
            m_hat = m / dt(c1)
            v_hat = v / dt(c2)
            p.data = p.data - dt(lr) * (m_hat / (np.sqrt(v_hat) + dt(cfg.eps_opt))) - dt(lr * cfg.weight_decay) * p.data

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Learning rate before optimizer step `step` (0-based)."""
    if cfg.schedule == "constant" or total_steps <= 0:
        return cfg.lr
    return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


# ---- teacher logits ------------------------------------------------------------


@dataclass
class LogitCache:
    logits: np.ndarray  # (N, classes) float32
    dataset_hash: int

    def check(self, data: Dataset) -> None:
        if self.dataset_hash != data.content_hash:
            raise StaleCacheError(
                f"cache was built for dataset hash {self.dataset_hash:#018x}, "
                f"got {data.content_hash:#018x}")
        if self.logits.shape[0] != len(data):
            raise StaleCacheError(f"cache holds {self.logits.shape[0]} rows for {len(data)} samples")
        _check_classes("cache", self.logits.shape[1], data)


def _check_classes(kind: str, classes: int, data: Dataset) -> None:
    if classes != data.num_classes:
        raise StaleCacheError(f"teacher {kind} has {classes} classes, data has {data.num_classes}")


def _frozen_logits(model: ModelParams, data: Dataset, batch_size: int) -> Iterator[tuple[Tensor, np.ndarray]]:
    """(logits, labels) per natural-order batch through ``model.detach()``, so
    no graph is built and no grad touched; the one graph-free forward here."""
    frozen = model.detach()
    for images, labels, _ in batch_iter(data, batch_size):
        yield forward_logits(frozen, Tensor(images)), labels


@one_blas_thread()
def cache_teacher_logits(teacher: ModelParams, data: Dataset, batch_size: int = 128) -> LogitCache:
    """Frozen teacher forward over the dataset in natural order, graph-free.
    Each batch's logits are written into one preallocated float32 array."""
    logits = np.empty((len(data), teacher.cfg.classes), np.float32)
    start = 0
    for batch, labels in _frozen_logits(teacher, data, batch_size):
        logits[start:start + len(labels)] = batch.data
        start += len(labels)
    return LogitCache(logits=logits, dataset_hash=data.content_hash)


# ---- evaluation and the loop ------------------------------------------------------


@one_blas_thread()
def evaluate(model: ModelParams, data: Dataset, batch_size: int = 256) -> tuple[float, float]:
    """(mean classification loss, top-1 accuracy) over the dataset in order.

    The forward is graph-free (``_frozen_logits``), so it leaves every
    parameter's grad untouched. A head whose class count differs from the
    data's is a TrainError.
    """
    if data.num_classes != model.cfg.classes:
        raise TrainError(f"model has {model.cfg.classes} classes, data has {data.num_classes}")
    total_loss = 0.0
    hits = 0
    for logits, labels in _frozen_logits(model, data, batch_size):
        total_loss += loss_cls(logits, labels).item() * len(labels)
        hits += int((np.argmax(logits.data, axis=-1) == labels).sum())
    n = len(data)
    return total_loss / n, hits / n


@dataclass
class EpochRow:
    epoch: int
    train_loss: float | None  # None on the no-tune row
    val_loss: float
    top1: float
    seconds: float


@dataclass
class Metrics:
    rows: list[EpochRow] = field(default_factory=list)

    @property
    def no_tune(self) -> EpochRow:
        return self.rows[0]

    @property
    def final(self) -> EpochRow:
        return self.rows[-1]

    def write_csv(self, path) -> None:
        """One row per epoch, epoch 0 being the untrained evaluation.

        The seconds column is always 0.000: measured times differ between
        byte-identical replays, and the CSV is the artifact replays are
        compared on. The times stay in ``rows``.
        """
        with open(path, "w", newline="") as fh:
            fh.write("epoch,train_loss,val_loss,top1,seconds\n")
            for r in self.rows:
                tl = "" if r.train_loss is None else f"{r.train_loss:.6f}"
                fh.write(f"{r.epoch},{tl},{r.val_loss:.6f},{r.top1:.6f},0.000\n")


@one_blas_thread()
def train_model(model: ModelParams, train_data: Dataset, val_data: Dataset, cfg: TrainConfig,
                teacher: "LogitCache | ModelParams | None" = None) -> Metrics:
    """Run cfg.epochs of AdamW over the train split, evaluating every epoch.

    Row 0 of the result is the untrained (no-tune) evaluation; epochs=0 gives
    just that row. ``teacher`` may be a LogitCache (checked against the train
    split's content hash), a frozen teacher model (cached once here when
    alpha > 0), or None when alpha = 0.
    """
    if cfg.alpha > 0.0 and teacher is None:
        raise TrainError("alpha > 0 needs a teacher (cache or frozen model)")
    if isinstance(teacher, ModelParams):
        _check_classes("model", teacher.cfg.classes, train_data)
        teacher = cache_teacher_logits(teacher, train_data) if cfg.alpha > 0.0 else None
    elif teacher is not None:
        teacher.check(train_data)

    opt = AdamW(list(model.named_tensors()), cfg)
    metrics = Metrics()

    t0 = time.perf_counter()
    val_loss, top1 = evaluate(model, val_data, cfg.eval_batch_size)
    metrics.rows.append(EpochRow(0, None, val_loss, top1, time.perf_counter() - t0))

    steps_per_epoch = (len(train_data) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        seen = 0
        loss_sum = 0.0
        shuffle_seed = derive_seed(cfg.seed, epoch)
        for images, labels, idx in batch_iter(train_data, cfg.batch_size, shuffle_seed):
            with np.errstate(all="ignore"):  # overflow is a non-finite loss or gradient, checked below
                logits = forward_logits(model, Tensor(images))
                t_rows = Tensor(teacher.logits[idx]) if cfg.alpha > 0.0 else None
                loss = loss_total(logits, labels, t_rows, cfg)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"non-finite loss {value} at epoch {epoch}, step {step + 1}")
                loss_sum += value * len(labels)
                seen += len(labels)
                backward(loss)
                opt.step(lr_at(cfg, step, total_steps))
            opt.zero_grad()
            del logits, t_rows, loss  # frees this step's graph before the next forward builds one
            step += 1
        val_loss, top1 = evaluate(model, val_data, cfg.eval_batch_size)
        metrics.rows.append(EpochRow(epoch, loss_sum / seen, val_loss, top1, time.perf_counter() - t0))
    return metrics

"""A small vision transformer assembled from the tensor op set.

Pre-LN encoder blocks (norm, attention, residual; norm, mlp with gelu,
residual), a learned class token and positional embedding, a final layer
norm over the class position, and a linear head. No dropout or stochastic
depth anywhere: forward passes are deterministic functions of the weights.

``build_model`` produces a plain untied model. The tied variant (several
positions sharing one parameter set) is built by ``sharing.build_aux`` on
top of the same internals here.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import os
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

import numpy as np

from . import tensor as T
from .rng import SplitMix64
from .tensor import Tensor

LN_EPS = 1e-6
INIT_STD = 0.02

# A graph-free forward runs in row blocks whose widest activation holds at
# most this many bytes (768 KiB), so that the two blocks in flight at once
# fit in about one core's L2 cache. A constant rather than a size read from
# the machine, so the logits do not depend on the host.
ROW_BLOCK_BYTES = 3 << 18

# The heap policy, applied once per process at import: freeing one array of
# this size raises glibc's dynamic mmap threshold to it (and the trim threshold
# to twice it), so row-block activations reuse heap the process keeps instead
# of faulting in fresh mmaps (a 1280-image depth sweep: ~400k minor faults per
# command without it). At import it stays outside any later tracemalloc window.
HEAP_THRESHOLD_BYTES = 8 << 20
np.empty(HEAP_THRESHOLD_BYTES, np.uint8)

# OpenBLAS's thread-count controls, (get, set) names, most specific build first.
_OPENBLAS_THREADS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"))


class ConfigError(ValueError):
    pass


def is_int(v, least: int | None = None) -> bool:
    """An int, at least ``least`` when given; bools and floats (even 2.0) are not."""
    return isinstance(v, int) and not isinstance(v, bool) and (least is None or v >= least)


# The largest size numpy can use as an array dimension or index (C ssize_t).
MAX_SIZE = int(np.iinfo(np.intp).max)


def is_size(v) -> bool:
    """A positive int no larger than MAX_SIZE: a count that may become an
    array dimension or a C integer."""
    return is_int(v, 1) and v <= MAX_SIZE


def is_real(v) -> bool:
    """An int or a float; bools are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# A config rule is an ordered tuple of (what, test) pairs; the first test a
# value fails names it: "<key> must be <what>, got <value>". A later test may
# rely on the earlier ones having passed. These pairs are shared by sections.
NUMBER = ("a number", is_real)
FINITE = ("finite", lambda v: abs(v) < np.inf)
INT = ("an integer", is_int)
SIZE = (f"a positive integer no larger than {MAX_SIZE}", is_size)


def check(values: dict, rules: dict, error: type[Exception], where: str = "") -> None:
    """Raise ``error`` at the first rule pair a present value fails, in the rules' order."""
    for key, rule in rules.items():
        for what, test in rule:
            if key in values and not test(values[key]):
                raise error(f"{where}{key} must be {what}, got {values[key]!r}")


MODEL_RULES = {"image_size": (SIZE,), "patch_size": (SIZE,), "channels": (SIZE,), "depth": (SIZE,),
               "width": (SIZE,), "heads": (SIZE,), "classes": (SIZE,),
               "mlp_ratio": (("a finite number", lambda v: is_real(v) and abs(v) < np.inf),)}


@dataclass(frozen=True)
class ModelConfig:
    image_size: int
    patch_size: int
    channels: int
    depth: int
    width: int
    heads: int
    classes: int
    mlp_ratio: float = 4.0

    def __post_init__(self):
        check(vars(self), MODEL_RULES, ConfigError)
        if self.image_size % self.patch_size != 0:
            raise ConfigError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if not (abs(self.width * self.mlp_ratio) < np.inf and 1 <= self.mlp_dim <= MAX_SIZE):
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} puts mlp_dim outside [1, {MAX_SIZE}]")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    @property
    def head_dim(self) -> int:
        return self.width // self.heads

    @property
    def mlp_dim(self) -> int:
        return int(round(self.width * self.mlp_ratio))

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every tensor by field name: the ModelParams.SHARED_FIELDS
        and the LayerParams.FIELDS of one layer set."""
        d, hid, k = self.width, self.mlp_dim, self.classes
        return {"patch_w": (self.patch_dim, d), "patch_b": (d,), "cls_token": (1, d),
                "pos_embed": (1 + self.num_patches, d), "final_ln_g": (d,), "final_ln_b": (d,),
                "head_w": (d, k), "head_b": (k,),
                "ln1_g": (d,), "ln1_b": (d,), "qkv_w": (d, 3 * d), "qkv_b": (3 * d,),
                "out_w": (d, d), "out_b": (d,), "ln2_g": (d,), "ln2_b": (d,),
                "up_w": (d, hid), "up_b": (hid,), "down_w": (hid, d), "down_b": (d,)}

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _owned_copy(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=t.requires_grad)


@dataclass
class LayerParams:
    """One encoder block's tensors."""

    ln1_g: Tensor
    ln1_b: Tensor
    qkv_w: Tensor
    qkv_b: Tensor
    out_w: Tensor
    out_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    up_w: Tensor
    up_b: Tensor
    down_w: Tensor
    down_b: Tensor

    FIELDS = ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "out_w", "out_b",
              "ln2_g", "ln2_b", "up_w", "up_b", "down_w", "down_b")

    def named(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.FIELDS:
            yield name, getattr(self, name)

    def map(self, fn) -> "LayerParams":
        """A set holding fn(t) for every tensor t of this one."""
        return LayerParams(**{n: fn(t) for n, t in self.named()})

    def clone(self) -> "LayerParams":
        return self.map(_owned_copy)


@dataclass
class ModelParams:
    """All weights of one model, plus an optional tying plan.

    ``layers`` holds one LayerParams per position; a tied model repeats the
    same object at every position of a stage, and ``plan`` records which
    positions alias (see sharing.StagePlan). Untied models have plan None.
    """

    cfg: ModelConfig
    patch_w: Tensor
    patch_b: Tensor
    cls_token: Tensor
    pos_embed: Tensor
    layers: list[LayerParams]
    final_ln_g: Tensor
    final_ln_b: Tensor
    head_w: Tensor
    head_b: Tensor
    plan: "object | None" = None  # sharing.StagePlan when tied

    SHARED_FIELDS = ("patch_w", "patch_b", "cls_token", "pos_embed",
                     "final_ln_g", "final_ln_b", "head_w", "head_b")

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """All tensors by position; aliased objects appear once per position."""
        for name in self.SHARED_FIELDS:
            yield name, getattr(self, name)
        for i, layer in enumerate(self.layers):
            for name, t in layer.named():
                yield f"layer{i:02d}.{name}", t

    def clone(self, plan=None) -> "ModelParams":
        """Owned copies of every tensor.

        With a plan, positions that hold one set share one copy, so the tying
        carries over; without one, every position gets its own copy.
        """
        return self._map(_owned_copy, tied=plan is not None, plan=plan)

    def detach(self) -> "ModelParams":
        """The same arrays, uncopied, in requires_grad=False tensors, with the
        tying kept: the model-level ``Tensor.detach``. A forward pass through
        the result records no graph, so each activation is freed as soon as
        the next op has read it."""
        return self._map(Tensor.detach, tied=True, plan=self.plan)

    def _map(self, fn, tied: bool, plan) -> "ModelParams":
        """fn applied to every tensor; when tied, a set held at several
        positions is mapped once and the result shared by those positions."""
        done: dict[int, LayerParams] = {}
        out = []
        for lp in self.layers:
            if not tied or id(lp) not in done:
                done[id(lp)] = lp.map(fn)
            out.append(done[id(lp)])
        shared = {name: fn(getattr(self, name)) for name in self.SHARED_FIELDS}
        return ModelParams(cfg=self.cfg, layers=out, plan=plan, **shared)

    def unique_tensors(self) -> list[tuple[str, Tensor]]:
        """Tensors deduplicated by object identity, first name wins."""
        return unique_named(self.named_tensors())


def unique_named(named: Iterable[tuple[str, Tensor]]) -> list[tuple[str, Tensor]]:
    """(name, tensor) pairs deduplicated by object identity, first name wins,
    in first-occurrence order (grad clipping sums norms in this order)."""
    first: dict[int, tuple[str, Tensor]] = {}
    for name, t in named:
        first.setdefault(id(t), (name, t))
    return list(first.values())


def count_params(params: ModelParams, unique_only: bool = True) -> int:
    """Total scalar count; unique_only counts aliased storage once."""
    items = params.unique_tensors() if unique_only else list(params.named_tensors())
    return sum(t.data.size for _, t in items)


# ---- construction -------------------------------------------------------------


def _init(name: str, shapes: dict[str, tuple[int, ...]], rng: SplitMix64, dtype) -> Tensor:
    """The init rule: gains (``*_g``) start at one, biases (``*_b``) at zero,
    and every other tensor is drawn from ``rng`` as a truncated normal."""
    shape = shapes[name]
    if name.endswith("_g"):
        data = np.ones(shape, dtype=dtype)
    elif name.endswith("_b"):
        data = np.zeros(shape, dtype=dtype)
    else:
        data = rng.truncated_normal(shape, std=INIT_STD).astype(dtype)
    return Tensor(data, requires_grad=True)


def build_params(cfg: ModelConfig, seed: int, position_to_set: list[int], plan=None, dtype=np.float32) -> ModelParams:
    """Shared builder: allocates max(position_to_set)+1 distinct layer sets and
    places them by position. Untied models map position i to set i.

    Shapes come from ``cfg.shapes()`` and values from ``_init``. Draw order:
    patch_w, cls_token, pos_embed, then per set qkv_w, out_w, up_w, down_w,
    then head_w."""
    init = functools.partial(_init, shapes=cfg.shapes(), rng=SplitMix64(seed), dtype=np.dtype(dtype).type)
    # SHARED_FIELDS holds the four embedding fields, then the final norm and head.
    front = {name: init(name) for name in ModelParams.SHARED_FIELDS[:4]}
    sets = [LayerParams(**{name: init(name) for name in LayerParams.FIELDS})
            for _ in range(max(position_to_set) + 1)]
    back = {name: init(name) for name in ModelParams.SHARED_FIELDS[4:]}
    return ModelParams(cfg=cfg, layers=[sets[m] for m in position_to_set], plan=plan, **front, **back)


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Untied model: every position has its own layer set."""
    return build_params(cfg, seed, list(range(cfg.depth)), plan=None, dtype=dtype)


def reinit_head(params: ModelParams, classes: int, seed: int) -> None:
    """Replace the classifier for a new class count, in place."""
    dtype = params.head_w.data.dtype.type
    params.cfg = replace(params.cfg, classes=classes)
    init = functools.partial(_init, shapes=params.cfg.shapes(), rng=SplitMix64(seed), dtype=dtype)
    params.head_w, params.head_b = init("head_w"), init("head_b")


# ---- forward ------------------------------------------------------------------


def _patchify(images: Tensor, cfg: ModelConfig) -> Tensor:
    b = images.shape[0]
    p, g = cfg.patch_size, cfg.grid
    x = T.reshape(images, (b, cfg.channels, g, p, g, p))
    x = T.permute(x, (0, 2, 4, 1, 3, 5))  # (B, gh, gw, C, p, p)
    return T.reshape(x, (b, cfg.num_patches, cfg.patch_dim))


def _attention(x: Tensor, lp: LayerParams, cfg: ModelConfig, b: int, n: int) -> Tensor:
    """A block's attention branch, out_proj(attention(ln1(x))), before its residual add."""
    d, h, dh = cfg.width, cfg.heads, cfg.head_dim

    hsa = T.layer_norm(x, lp.ln1_g, lp.ln1_b, LN_EPS)
    qkv = T.add(T.matmul(hsa, lp.qkv_w), lp.qkv_b)          # (B, N, 3d)
    qkv = T.reshape(qkv, (b, n, 3, h, dh))
    qkv = T.permute(qkv, (2, 0, 3, 1, 4))                   # (3, B, h, N, dh)
    q = T.index_axis(qkv, 0, 0)
    k = T.index_axis(qkv, 0, 1)
    v = T.index_axis(qkv, 0, 2)
    att = T.matmul(q, T.permute(k, (0, 1, 3, 2)))           # (B, h, N, N)
    att = T.scale(att, 1.0 / np.sqrt(dh))
    att = T.softmax_rows(att)
    o = T.matmul(att, v)                                    # (B, h, N, dh)
    o = T.reshape(T.permute(o, (0, 2, 1, 3)), (b, n, d))
    return T.add(T.matmul(o, lp.out_w), lp.out_b)


def _mlp(x: Tensor, lp: LayerParams) -> Tensor:
    """A block's MLP branch, down(gelu(up(ln2(x)))), before its residual add."""
    hmlp = T.layer_norm(x, lp.ln2_g, lp.ln2_b, LN_EPS)
    hmlp = T.gelu(T.add(T.matmul(hmlp, lp.up_w), lp.up_b))
    return T.add(T.matmul(hmlp, lp.down_w), lp.down_b)


def _block(x: Tensor, lp: LayerParams, cfg: ModelConfig, b: int, n: int) -> Tensor:
    # Each branch's temporaries are locals of its own frame, so a graph-free
    # forward frees the attention's before the MLP allocates its widest arrays.
    x = T.add(x, _attention(x, lp, cfg, b, n))
    return T.add(x, _mlp(x, lp))


def forward_logits(params: ModelParams, images: Tensor) -> Tensor:
    """Logits (B, classes) for a batch of images (B, C, H, W).

    When neither the images nor any parameter requires grad, every batch runs
    through ``_row_blocks``, in blocks of ``row_block_size`` samples, and the
    logits are concatenated in block order, so memory stays bounded however
    large the batch is. Every op treats the samples of a batch independently,
    but the logits need not be the same bits as one whole-batch pass: BLAS
    may round a small product differently from the same rows of a large one
    (OpenBLAS, depth-1 width-8 model, 650 images in blocks of 614 + 36: 23
    rows differ, by up to 1.5e-8). What holds is that a given batch gives
    the same bits on a given build, and blocks run in two lanes the same
    bits as blocks run in one. A forward that builds a graph never splits.
    Not meant to be called from several threads at once: a split forward
    sets OpenBLAS's process-wide thread count.
    """
    cfg = params.cfg
    expect = (cfg.channels, cfg.image_size, cfg.image_size)
    if images.data.ndim != 4 or images.shape[1:] != expect:
        raise T.ShapeError(f"forward_logits: images {images.shape} do not match (B,) + {expect}")
    if images.requires_grad or any(t.requires_grad for _, t in params.named_tensors()):
        return _logits(params, images)
    rows = row_block_size(cfg, np.result_type(images.data.dtype, params.patch_w.data.dtype).itemsize)
    starts = range(0, max(images.shape[0], 1), rows)  # an empty batch is one empty block
    return Tensor(np.concatenate(_row_blocks(params, [Tensor(images.data[i:i + rows]) for i in starts])))


def _row_blocks(params: ModelParams, blocks: list[Tensor]) -> list[np.ndarray]:
    """Each block's logits, in order, run in two halves: the helper thread
    runs the second half, ``blocks[len(blocks) // 2:]``, while the calling
    thread runs the first. OpenBLAS is held to one thread meanwhile, so the
    two lanes do not compete for the cores with its own threads. The blocks
    run one after another instead when there are two or fewer (two uneven
    blocks gain little and a second thread costs its own heap), when the
    process may use only one CPU, or without OpenBLAS's thread controls. If
    a block raises, the other half is waited for and the thread count
    restored before the error propagates. Each lane runs with numpy's
    floating-point warnings off (``np.errstate`` does not reach the helper
    thread from the caller): a non-finite value is an error only where the
    caller checks it, as ``softmax_rows`` and the losses do."""
    def run(part):
        with np.errstate(all="ignore"):
            return [_logits(params, b).data for b in part]

    blas = openblas_threads() if len(blocks) > 2 and _usable_cpus() > 1 else None
    if blas is None:
        return run(blocks)
    get, set_ = blas
    before = get()
    set_(1)
    try:
        half = len(blocks) // 2
        side = _helper().submit(run, blocks[half:])
        try:
            out = run(blocks[:half])
        finally:
            side.exception()  # waits; the result is read below
        return out + side.result()
    finally:
        set_(before)


@functools.cache
def _helper():
    """The one helper thread of ``_row_blocks``, started by its first split."""
    from concurrent.futures import ThreadPoolExecutor  # not loaded by `import sws`
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="sws-row-blocks")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def openblas_threads():
    """OpenBLAS's (get, set) thread-count functions, looked up once in the
    library numpy's own ``_multiarray_umath`` extension loads, or None when
    that extension cannot be opened or its BLAS exposes none of them."""
    # numpy 1.26 also ships numpy/_core/_multiarray_umath.py, a pure-Python
    # shim for reading numpy 2 pickles, so the package follows the version.
    package = "numpy._core" if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else "numpy.core"
    try:
        path = importlib.import_module(f"{package}._multiarray_umath").__file__
        if not str(path).endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES)):
            return None
        lib = ctypes.CDLL(path)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def row_block_size(cfg: ModelConfig, itemsize: int) -> int:
    """Samples per graph-free row block: as many as keep the widest activation
    of one sample, n x max(3 * width, mlp_dim, heads * n) for n = 1 +
    num_patches tokens (qkv, the MLP hidden layer or the attention scores),
    within ROW_BLOCK_BYTES; at least one."""
    n = 1 + cfg.num_patches
    per_sample = n * max(3 * cfg.width, cfg.mlp_dim, cfg.heads * n) * itemsize
    return max(1, ROW_BLOCK_BYTES // per_sample)


def _logits(params: ModelParams, images: Tensor) -> Tensor:
    cfg = params.cfg
    b = images.shape[0]
    n = 1 + cfg.num_patches

    x = _patchify(images, cfg)
    x = T.add(T.matmul(x, params.patch_w), params.patch_b)
    cls = T.broadcast_to(T.reshape(params.cls_token, (1, 1, cfg.width)), (b, 1, cfg.width))
    x = T.concat([cls, x], axis=1)
    x = T.add(x, params.pos_embed)
    for lp in params.layers:
        x = _block(x, lp, cfg, b, n)
    x0 = T.index_axis(x, 1, 0)  # class position
    x0 = T.layer_norm(x0, params.final_ln_g, params.final_ln_b, LN_EPS)
    return T.add(T.matmul(x0, params.head_w), params.head_b)

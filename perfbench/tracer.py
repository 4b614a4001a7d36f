"""Span recorder for the traced benchmark run.

Wrappers are installed only in traced mode. Each one rebinds a public name
where the program looks it up at call time: ``sws.tensor.<op>`` (vit and
train call ``T.<op>``), names that other modules import by name
(``sws.train.backward``, ``sws.cli.save_checkpoint``, ...), and class
attributes (``Graph.trace``, ``AdamW.step``, ``SplitMix64.permutation``).
A tensor op's backward time comes from wrapping the ``_vjp`` closure of the
tensor it returns.

Spans are kept in memory as parallel lists (name, start, end, parent) and
turned into per-layer metrics, and optionally an ``.npz`` file, when the run
ends. Every ``_s`` metric is self time: a span's duration minus the time its
child spans cover, so the self times of all spans add up to the root spans'
wall time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

OPS = ("matmul", "add", "scale", "reshape", "permute", "broadcast_to", "index_axis", "concat",
       "softmax_rows", "layer_norm", "gelu", "soft_cross_entropy")
PARTS = ("patch_embed", "qkv", "attn", "out_proj", "mlp_up", "mlp_down", "head")
LAYERS = ("tensor", "vit", "train", "data", "rng", "store", "sharing", "expand", "cli")

# Span names whose self time is reported as "<name>_s".
SPANS = (
    [f"tensor.{op}.{phase}" for op in OPS for phase in ("fwd", "vjp")]
    + ["tensor.backward", "tensor.trace",
       "vit.forward_logits", "vit.build_params",
       "train.train_model", "train.adamw_step", "train.loss_total", "train.evaluate",
       "train.cache_teacher_logits", "train.cache_check",
       "data.load_idx", "data.split", "data.batch_iter", "data.make_synthetic", "data.content_hash",
       "rng.permutation", "rng.truncated_normal",
       "store.save", "store.load",
       "sharing.build_aux", "sharing.extract_learngene",
       "expand.init_descendant", "expand.simple_lg_expand",
       "cli.main", "cli.manifest_hash"]
)

# Every per-layer metric as (name, unit, better). Order is the output order.
PER_LAYER = (
    [(f"tensor.{op}.{phase}_s", "s", "lower") for op in OPS for phase in ("fwd", "vjp")]
    + [(f"tensor.{op}.calls", "count", "lower") for op in OPS]
    + [("tensor.backward_s", "s", "lower"), ("tensor.backward_calls", "count", "lower"),
       ("tensor.trace_s", "s", "lower"), ("tensor.graph_nodes", "count", "lower"),
       ("tensor.matmul.gflop", "GFLOP", "lower"), ("tensor.matmul.gflop_per_s", "GFLOP/s", "higher"),
       ("tensor.index_axis.vjp_zero_mb", "MB", "lower"), ("tensor.errors", "count", "lower"),
       ("vit.forward_logits_s", "s", "lower"), ("vit.forward_logits_calls", "count", "lower"),
       ("vit.build_params_s", "s", "lower")]
    + [(f"vit.part.{part}.{phase}_s", "s", "lower") for part in PARTS for phase in ("fwd", "vjp")]
    + [("vit.errors", "count", "lower"),
       ("train.train_model_s", "s", "lower"),
       ("train.adamw_step_s", "s", "lower"), ("train.adamw_step_calls", "count", "lower"),
       ("train.loss_total_s", "s", "lower"), ("train.evaluate_s", "s", "lower"),
       ("train.evaluate_samples", "count", "lower"), ("train.cache_teacher_logits_s", "s", "lower"),
       ("train.cache_check_s", "s", "lower"), ("train.errors", "count", "lower"),
       ("data.load_idx_s", "s", "lower"), ("data.split_s", "s", "lower"),
       ("data.batch_iter_s", "s", "lower"), ("data.make_synthetic_s", "s", "lower"),
       ("data.content_hash_s", "s", "lower"), ("data.content_hash_mb", "MB", "lower"),
       ("data.content_hash_hit_ratio", "ratio", "higher"), ("data.fnv1a64_mb_per_s", "MB/s", "higher"),
       ("data.errors", "count", "lower"),
       ("rng.permutation_s", "s", "lower"), ("rng.permutation_items", "count", "lower"),
       ("rng.randbelow_calls", "count", "lower"), ("rng.truncated_normal_s", "s", "lower"),
       ("rng.truncated_normal_accept_ratio", "ratio", "higher"), ("rng.errors", "count", "lower"),
       ("store.save_s", "s", "lower"), ("store.save_mb", "MB", "lower"),
       ("store.load_s", "s", "lower"), ("store.load_mb", "MB", "lower"), ("store.errors", "count", "lower"),
       ("sharing.build_aux_s", "s", "lower"), ("sharing.extract_learngene_s", "s", "lower"),
       ("sharing.errors", "count", "lower"),
       ("expand.init_descendant_s", "s", "lower"), ("expand.simple_lg_expand_s", "s", "lower"),
       ("expand.params_cloned_m", "Mparams", "lower"), ("expand.errors", "count", "lower"),
       ("cli.main_s", "s", "lower"), ("cli.manifest_hash_s", "s", "lower"),
       ("cli.manifest_hash_mb", "MB", "lower"), ("cli.errors", "count", "lower"),
       ("setup.import_s", "s", "lower"), ("setup.fixtures_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)

MB = 1e6


def matmul_part(a_shape, b_shape, model: dict) -> str:
    """Which ViT block part a matmul belongs to, from its operand shapes."""
    d, hidden = model["width"], model["mlp_dim"]
    if len(b_shape) == 4:
        return "attn"
    k, n = b_shape[-2], b_shape[-1]
    if len(a_shape) == 2:
        return "head"
    if a_shape[-2] == model["num_patches"]:
        return "patch_embed"
    if (k, n) == (d, 3 * d):
        return "qkv"
    if (k, n) == (hidden, d):
        return "mlp_down"
    if (k, n) == (d, hidden):
        return "mlp_up"
    if (k, n) == (d, d):
        return "out_proj"
    return "other"


class Tracer:
    """Records spans and counts around calls into the sws modules."""

    def __init__(self, model: dict):
        self.model = model
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.part: dict[int, str] = {}  # matmul span index -> block part
        self.counts: dict[str, float] = defaultdict(float)
        self.graph_nodes: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; an exception counts against the span's layer."""
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            self._close(i)

    def spanned(self, fn, name: str, after=None):
        """fn wrapped in a span; after(out, args) runs once the span closes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args)
            return out
        return wrapper

    # ---- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, attr: str, new) -> None:
        for mod in modules:
            self._patch(mod, attr, new)

    def install(self) -> None:
        import sws.cli as cli
        import sws.data as data
        import sws.rng as rng
        import sws.sharing as sharing
        import sws.tensor as tensor
        import sws.train as train
        import sws.vit as vit

        for op in OPS:
            self._patch(tensor, op, self._op_wrapper(op, getattr(tensor, op)))
        self._patch(train, "backward", self.spanned(train.backward, "tensor.backward",
                                                     lambda out, args: self._count("tensor.backward_calls")))
        trace = tensor.Graph.__dict__["trace"].__func__
        self._patch(tensor.Graph, "trace", classmethod(self.spanned(
            trace, "tensor.trace", lambda out, args: self.graph_nodes.append(len(out)))))

        fwd = self.spanned(vit.forward_logits, "vit.forward_logits",
                           lambda out, args: self._count("vit.forward_logits_calls"))
        self._patch_everywhere((vit, train), "forward_logits", fwd)
        self._patch_everywhere((vit, sharing), "build_params", self.spanned(vit.build_params, "vit.build_params"))

        self._patch(cli, "train_model", self.spanned(cli.train_model, "train.train_model"))
        self._patch(train.AdamW, "step", self.spanned(train.AdamW.step, "train.adamw_step",
                                                       lambda out, args: self._count("train.adamw_step_calls")))
        self._patch(train, "loss_total", self.spanned(train.loss_total, "train.loss_total"))
        evaluate = self.spanned(train.evaluate, "train.evaluate",
                                lambda out, args: self._count("train.evaluate_samples", len(args[1])))
        self._patch_everywhere((train, cli), "evaluate", evaluate)
        self._patch(cli, "cache_teacher_logits", self.spanned(cli.cache_teacher_logits,
                                                              "train.cache_teacher_logits"))
        self._patch(train.LogitCache, "check", self.spanned(train.LogitCache.check, "train.cache_check"))

        self._patch(cli, "load_idx", self.spanned(cli.load_idx, "data.load_idx"))
        self._patch(cli, "split", self.spanned(cli.split, "data.split"))
        self._patch(cli, "make_synthetic", self.spanned(cli.make_synthetic, "data.make_synthetic"))
        self._patch(train, "batch_iter", self._generator_wrapper(train.batch_iter, "data.batch_iter"))
        self._patch(data.Dataset, "content_hash", self._content_hash_property(data.Dataset.content_hash))
        self._patch(data, "fnv1a64", self._fnv_wrapper(data.fnv1a64, None))
        self._patch(cli, "fnv1a64", self._fnv_wrapper(cli.fnv1a64, "cli.manifest_hash"))

        sm = rng.SplitMix64
        self._patch(sm, "permutation", self.spanned(sm.permutation, "rng.permutation",
                                                    lambda out, args: self._count("rng.permutation_items", args[1])))
        self._patch(sm, "randbelow", self._counting(sm.randbelow, "rng.randbelow_calls"))
        self._patch(sm, "truncated_normal", self.spanned(sm.truncated_normal, "rng.truncated_normal",
                                                         lambda out, args: self._count("rng.normals_kept", out.size)))
        self._patch(sm, "block_normal", self._counting(sm.block_normal, "rng.normals_drawn", arg=1))

        saved = lambda out, args: self._count("store.save_bytes", os.path.getsize(args[1]))  # noqa: E731
        loaded = lambda out, args: self._count("store.load_bytes", os.path.getsize(args[0]))  # noqa: E731
        for name in ("save_checkpoint", "save_learngene", "save_logit_cache"):
            self._patch(cli, name, self.spanned(getattr(cli, name), "store.save", saved))
        for name in ("load_checkpoint", "load_learngene", "load_logit_cache"):
            self._patch(cli, name, self.spanned(getattr(cli, name), "store.load", loaded))

        self._patch(cli, "build_aux", self.spanned(cli.build_aux, "sharing.build_aux"))
        self._patch(cli, "extract_learngene", self.spanned(cli.extract_learngene, "sharing.extract_learngene"))
        cloned = lambda out, args: self._count("expand.params_cloned", cli.count_params(out[0]))  # noqa: E731
        self._patch(cli, "init_descendant", self.spanned(cli.init_descendant, "expand.init_descendant", cloned))
        self._patch(cli, "simple_lg_expand", self.spanned(cli.simple_lg_expand, "expand.simple_lg_expand", cloned))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- wrappers ------------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def _counting(self, fn, key: str, arg: int | None = None):
        """Count calls (or the sum of positional argument `arg`) without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1 if arg is None else args[arg]
            return fn(*args, **kwargs)
        return wrapper

    def _op_wrapper(self, op: str, fn):
        fwd_name, vjp_name = f"tensor.{op}.fwd", f"tensor.{op}.vjp"
        calls_key = f"tensor.{op}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts["tensor.errors"] += 1
                raise
            finally:
                tracer._close(i)
            tracer.counts[calls_key] += 1
            part = None
            amount = 0.0  # matmul: forward flop; index_axis: bytes of zeros its vjp allocates
            if op == "matmul":
                a, b = args[0], args[1]
                part = tracer.part[i] = matmul_part(a.shape, b.shape, tracer.model)
                amount = 2.0 * out.data.size * a.shape[-1]
                tracer.counts["tensor.matmul.flop"] += amount
            elif op == "index_axis":
                amount = float(args[0].data.nbytes)
            if out._vjp is not None:
                out._vjp = tracer._vjp_wrapper(out._vjp, op, vjp_name, part, amount)
            return out
        return wrapper

    def _vjp_wrapper(self, vjp, op: str, name: str, part: str | None, amount: float):
        tracer = self

        def wrapper(g):
            i = tracer._open(name)
            try:
                return vjp(g)
            except Exception:
                tracer.counts["tensor.errors"] += 1
                raise
            finally:
                tracer._close(i)
                if part is not None:
                    tracer.part[i] = part
                    tracer.counts["tensor.matmul.flop"] += 2.0 * amount
                elif op == "index_axis":
                    tracer.counts["tensor.index_axis.vjp_zero_bytes"] += amount
        return wrapper

    def _generator_wrapper(self, fn, name: str):
        """A span around each step of a generator, closed while it is suspended."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except Exception:
                    tracer.counts[name.split(".")[0] + ".errors"] += 1
                    raise
                finally:
                    tracer._close(i)
                yield item
        return wrapper

    def _content_hash_property(self, prop: property) -> property:
        tracer = self

        def fget(ds):
            tracer.counts["data.content_hash_calls"] += 1
            if ds._hash is not None:
                tracer.counts["data.content_hash_hits"] += 1
            else:
                tracer.counts["data.content_hash_bytes"] += ds.images.nbytes + 4 * ds.labels.size
            return tracer.call("data.content_hash", prop.fget, ds)
        return property(fget)

    def _fnv_wrapper(self, fn, name: str | None):
        """Times every FNV-1a call; cli calls also get a span of their own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(buf):
            t0 = time.perf_counter()
            out = fn(buf) if name is None else tracer.call(name, fn, buf)
            tracer.counts["fnv.seconds"] += time.perf_counter() - t0
            tracer.counts["fnv.bytes"] += len(buf)
            if name is not None:
                tracer.counts["cli.manifest_hash_bytes"] += len(buf)
            return out
        return wrapper

    # ---- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.names)
        if n == 0:
            return {}
        start, end = np.asarray(self.start), np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        keys, ids = np.unique(np.asarray(self.names), return_inverse=True)
        totals = np.bincount(ids, weights=own, minlength=len(keys))
        return {str(k): float(v) for k, v in zip(keys, totals)}

    def part_times(self) -> dict[str, float]:
        """Matmul time regrouped by block part (matmul spans have no children)."""
        out: dict[str, float] = defaultdict(float)
        for i, part in self.part.items():
            phase = self.names[i].rsplit(".", 1)[1]
            out[f"vit.part.{part}.{phase}_s"] += self.end[i] - self.start[i]
        return out

    def metrics(self, commands: int, setup: dict, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics; times, counts and sizes are per traced command."""
        own = self.self_times()
        c = self.counts
        m: dict[str, float] = {f"{name}_s": own.get(name, 0.0) for name in SPANS}
        m.update({f"tensor.{op}.calls": c[f"tensor.{op}.calls"] for op in OPS})
        parts = self.part_times()
        m.update({f"vit.part.{p}.{ph}_s": parts.get(f"vit.part.{p}.{ph}_s", 0.0)
                  for p in PARTS for ph in ("fwd", "vjp")})
        m.update({f"{layer}.errors": c[f"{layer}.errors"] for layer in LAYERS})
        m.update({
            "tensor.backward_calls": c["tensor.backward_calls"],
            "tensor.matmul.gflop": c["tensor.matmul.flop"] / 1e9,
            "tensor.index_axis.vjp_zero_mb": c["tensor.index_axis.vjp_zero_bytes"] / MB,
            "vit.forward_logits_calls": c["vit.forward_logits_calls"],
            "train.adamw_step_calls": c["train.adamw_step_calls"],
            "train.evaluate_samples": c["train.evaluate_samples"],
            "data.content_hash_mb": c["data.content_hash_bytes"] / MB,
            "rng.permutation_items": c["rng.permutation_items"],
            "rng.randbelow_calls": c["rng.randbelow_calls"],
            "store.save_mb": c["store.save_bytes"] / MB,
            "store.load_mb": c["store.load_bytes"] / MB,
            "expand.params_cloned_m": c["expand.params_cloned"] / 1e6,
            "cli.manifest_hash_mb": c["cli.manifest_hash_bytes"] / MB,
        })
        m = {name: value / commands for name, value in m.items()}
        matmul_s = own.get("tensor.matmul.fwd", 0.0) + own.get("tensor.matmul.vjp", 0.0)
        m.update({
            "tensor.graph_nodes": float(np.median(self.graph_nodes)) if self.graph_nodes else 0.0,
            "tensor.matmul.gflop_per_s": c["tensor.matmul.flop"] / 1e9 / matmul_s if matmul_s else 0.0,
            "data.content_hash_hit_ratio": (c["data.content_hash_hits"] / c["data.content_hash_calls"]
                                            if c["data.content_hash_calls"] else 0.0),
            "data.fnv1a64_mb_per_s": c["fnv.bytes"] / MB / c["fnv.seconds"] if c["fnv.seconds"] else 0.0,
            "rng.truncated_normal_accept_ratio": (c["rng.normals_kept"] / c["rng.normals_drawn"]
                                                  if c["rng.normals_drawn"] else 0.0),
            "setup.import_s": setup["import_s"],
            "setup.fixtures_s": setup["fixtures_s"],
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: m[name] for name, _, _ in PER_LAYER}

    def save(self, path) -> None:
        """Write the raw spans: name table, per-span name id, start, end, parent."""
        keys, ids = np.unique(np.asarray(self.names or [""]), return_inverse=True)
        np.savez_compressed(path, names=keys, name_id=ids[:len(self.names)],
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent, dtype=np.int64))

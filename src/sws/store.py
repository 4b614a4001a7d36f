"""On-disk artifacts: checkpoints, learngene packs, teacher logit caches.

One container format serves all three. Layout:

    magic   4 bytes  b"SWS1"
    version u32 LE   (currently 1; anything else is rejected)
    hlen    u64 LE   byte length of the header that follows
    header  UTF-8 JSON, keys sorted, compact separators, space-padded to a
            multiple of 8 bytes: {"kind": ..., "meta": {...}, "tensors":
            [{"length", "name", "offset", "shape"}, ...]}
    payload raw little-endian float32, each tensor starting at an 8-byte
            aligned offset relative to the payload start

Offsets are assigned to names in sorted order, so writing the same content
twice yields byte-identical files. Writes go through a temp file plus rename
and never leave a partial artifact behind. Storage is always 32-bit; float64
inputs are cast on save, and non-finite values are refused on save and on
load. No compression, no checksum.

Every way a file can be wrong maps to its own exception type so callers can
tell a stale path from a corrupt artifact from a version skew.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Iterable, Mapping

import numpy as np

from .sharing import PACK_VERSION, LearngenePack, StagePlan, stage_sets
from .tensor import Tensor
from .train import LogitCache
from .vit import LayerParams, ModelConfig, ModelParams, is_int

MAGIC = b"SWS1"
VERSION = 1
KINDS = ("checkpoint", "learngene", "logitcache")

_HEAD = struct.Struct("<IQ")  # version, header length


class StoreError(Exception):
    pass


class BadMagicError(StoreError):
    pass


class VersionError(StoreError):
    pass


class KindError(StoreError):
    pass


class TruncatedError(StoreError):
    pass


class OverlapError(StoreError):
    pass


class HeaderError(StoreError):
    pass


class NonFiniteError(StoreError):
    """A payload holds a NaN or an infinity, which ``save`` never writes."""


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinity in arr. min and max both propagate NaN, and an
    infinity would be the min or the max, so the check allocates nothing
    the size of arr. A zero-size array has no min and nothing to refuse."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _align8(n: int) -> int:
    return (n + 7) & ~7


def save(path, kind: str, tensors: "Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]]",
         meta: dict | None = None) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    pairs = list(tensors.items()) if isinstance(tensors, Mapping) else list(tensors)
    names = [n for n, _ in pairs]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate tensor names: {dup}")
    arrays: dict[str, np.ndarray] = {}
    for name, arr in pairs:
        # asarray, not ascontiguousarray: the latter inflates 0-d shapes to (1,).
        arr = np.asarray(arr, dtype="<f4", order="C")
        if not _all_finite(arr):
            raise ValueError(f"tensor {name!r} has non-finite values")
        arrays[name] = arr

    index = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        length = arr.size * 4
        index.append({"length": length, "name": name,
                      "offset": offset, "shape": list(arr.shape)})
        offset = _align8(offset + length)

    header = json.dumps({"kind": kind, "meta": meta or {}, "tensors": index},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (_align8(len(header)) - len(header))

    # os.open with 0o666, not mkstemp's 0o600, so the file gets the mode the umask gives any new file.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_HEAD.pack(VERSION, len(header)))
            fh.write(header)
            pos = 0
            for entry in index:
                fh.write(b"\x00" * (entry["offset"] - pos))
                fh.write(arrays[entry["name"]])  # the array's own buffer: C order, little-endian
                pos = entry["offset"] + entry["length"]
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path, expected_kind: str) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and meta of a container, each tensor read straight into its
    own array. The header and every index entry are checked against the file's
    size before any tensor is allocated, so a header that lies cannot make a
    load allocate more than the file holds."""
    if expected_kind not in KINDS:
        raise ValueError(f"expected_kind must be one of {KINDS}, got {expected_kind!r}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 4:
            raise TruncatedError(f"{path}: {size} bytes is too short for the magic")
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: magic {magic!r}, expected {MAGIC!r}")
        if size < 4 + _HEAD.size:
            raise TruncatedError(f"{path}: truncated before the header fields")
        version, hlen = _HEAD.unpack(fh.read(_HEAD.size))
        if version != VERSION:
            raise VersionError(f"{path}: format version {version}, this build reads {VERSION}")
        payload_at = 4 + _HEAD.size + hlen
        if size < payload_at:
            raise TruncatedError(f"{path}: header claims {hlen} bytes, file ends early")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))  # UnicodeDecodeError is a ValueError
        except ValueError as e:
            raise HeaderError(f"{path}: undecodable header: {e}") from None
        if not (isinstance(header, dict) and header.keys() >= {"kind", "meta", "tensors"}
                and isinstance(header["tensors"], list)):
            raise HeaderError(f"{path}: header is not an object with 'kind', 'meta' and a 'tensors' list")
        kind, meta, index = header["kind"], header["meta"], header["tensors"]
        if kind != expected_kind:
            raise KindError(f"{path}: kind {kind!r}, expected {expected_kind!r}")

        entries: dict[str, tuple[tuple, int, int]] = {}  # name: shape, offset, length
        for entry in index:
            try:
                name, shape, off, length = entry["name"], tuple(entry["shape"]), entry["offset"], entry["length"]
            except (KeyError, TypeError):
                raise HeaderError(f"{path}: malformed index entry {entry!r}") from None
            if not (isinstance(name, str) and all(is_int(v, 0) for v in (*shape, off, length))) or name in entries:
                raise HeaderError(f"{path}: malformed or repeated index entry {entry!r}")
            if length != math.prod(shape) * 4 or off % 8 != 0:
                raise HeaderError(f"{path}: entry {name!r} has offset {off}, length {length}, shape {shape}")
            if payload_at + off + length > size:
                raise TruncatedError(f"{path}: tensor {name!r} extends past end of file")
            try:
                np.broadcast_to(np.float32(0), shape)  # a view: np.empty's shape check, nothing allocated
            except ValueError:  # more than 64 axes, or a zero-size shape too large for numpy
                raise HeaderError(f"{path}: entry {name!r} has shape {shape}") from None
            entries[name] = shape, off, length
        spans = sorted((off, off + length, name) for name, (_, off, length) in entries.items())
        for (a0, a1, an), (b0, _, bn) in zip(spans, spans[1:]):
            if b0 < a1:
                raise OverlapError(f"{path}: tensors {an!r} and {bn!r} overlap")

        out: dict[str, np.ndarray] = {}
        for name, (shape, off, length) in entries.items():
            arr = np.empty(shape, "<f4")
            fh.seek(payload_at + off)
            if fh.readinto(arr) != length:  # the file shrank since its size was read
                raise TruncatedError(f"{path}: tensor {name!r} extends past end of file")
            if not _all_finite(arr):
                raise NonFiniteError(f"{path}: tensor {name!r} has non-finite values")
            out[name] = arr
    return out, meta


# ---- models: checkpoints and learngene packs ------------------------------------


def _set_prefix(kind: str, plan) -> str:
    if kind == "learngene":
        return "gene"
    return "layer" if plan is None else "stage"


def _save_model(path, kind: str, params: ModelParams, meta: dict) -> None:
    """Shared tensors by field name, then one layer set per stage (tied) or per
    position (untied) as "<prefix>NN.<field>"; meta gains "cfg", and "plan" when tied."""
    pairs = [(name, getattr(params, name).data) for name in ModelParams.SHARED_FIELDS]
    sets = params.layers if params.plan is None else stage_sets(params)
    prefix = _set_prefix(kind, params.plan)
    for m, lp in enumerate(sets):
        pairs.extend((f"{prefix}{m:02d}.{name}", t.data) for name, t in lp.named())
    meta = {"cfg": params.cfg.to_dict(), **meta}
    if params.plan is not None:
        meta["plan"] = list(params.plan.stage_sizes)
    save(path, kind, pairs, meta)


def _load_model(path, kind: str) -> tuple[ModelParams, dict]:
    """Inverse of _save_model. Header meta is checked before any tensor is read,
    and every problem with it is a HeaderError (or VersionError)."""
    arrays, meta = load(path, kind)
    if not isinstance(meta, dict) or "cfg" not in meta:
        raise HeaderError(f"{path}: header meta has no 'cfg'")
    try:
        cfg = ModelConfig.from_dict(meta["cfg"])
    except (TypeError, ValueError) as e:
        raise HeaderError(f"{path}: bad meta 'cfg': {e}") from None
    plan = None
    if "plan" in meta:
        try:
            plan = StagePlan(tuple(meta["plan"]))
        except (TypeError, ValueError) as e:
            raise HeaderError(f"{path}: bad meta 'plan' {meta['plan']!r}: {e}") from None
        if plan.total_layers != cfg.depth:
            raise HeaderError(f"{path}: plan covers {plan.total_layers} layers but cfg.depth is {cfg.depth}")
    elif kind == "learngene":
        raise HeaderError(f"{path}: learngene header meta has no 'plan'")
    if kind == "learngene" and meta.get("pack_version", PACK_VERSION) != PACK_VERSION:
        raise VersionError(f"{path}: pack version {meta['pack_version']!r}, this build reads {PACK_VERSION}")

    shapes = cfg.shapes()
    prefix = _set_prefix(kind, plan)
    num_sets = cfg.depth if plan is None else plan.num_stages
    want = {name: shapes[name] for name in ModelParams.SHARED_FIELDS}
    want.update((f"{prefix}{m:02d}.{name}", shapes[name]) for m in range(num_sets) for name in LayerParams.FIELDS)
    missing, extra = sorted(want.keys() - arrays.keys()), sorted(arrays.keys() - want.keys())
    if missing or extra:
        raise HeaderError(f"{path}: tensors do not match its cfg (missing {missing}, unexpected {extra})")
    for name, shape in want.items():
        if arrays[name].shape != shape:
            raise HeaderError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, its cfg gives {shape}")

    tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    shared = {name: tensors[name] for name in ModelParams.SHARED_FIELDS}
    sets = [LayerParams(**{name: tensors[f"{prefix}{m:02d}.{name}"] for name in LayerParams.FIELDS})
            for m in range(num_sets)]
    layers = sets if plan is None else [sets[m] for m in plan.stage_of_position()]
    return ModelParams(cfg=cfg, layers=layers, plan=plan, **shared), meta


def save_checkpoint(params: ModelParams, path, provenance: dict | None = None) -> None:
    """Tied models store one stage set per stage plus the plan; untied models
    store one set per position. Either way the load reproduces the aliasing."""
    _save_model(path, "checkpoint", params, {"provenance": provenance or {}})


def load_checkpoint(path) -> ModelParams:
    return _load_model(path, "checkpoint")[0]


def save_learngene(pack: LearngenePack, path) -> None:
    _save_model(path, "learngene", pack, {"provenance": pack.provenance, "pack_version": pack.version})


def load_learngene(path) -> LearngenePack:
    model, meta = _load_model(path, "learngene")
    return LearngenePack(**vars(model), provenance=meta.get("provenance", {}))


# ---- teacher logit caches -------------------------------------------------------------


def save_logit_cache(cache: LogitCache, path) -> None:
    meta = {"dataset_hash": f"{cache.dataset_hash:#018x}", "rows": int(cache.logits.shape[0])}
    save(path, "logitcache", {"logits": cache.logits}, meta)


def load_logit_cache(path) -> LogitCache:
    arrays, meta = load(path, "logitcache")
    if arrays.keys() != {"logits"} or arrays["logits"].ndim != 2:
        shapes = {name: a.shape for name, a in arrays.items()}
        raise HeaderError(f"{path}: a logit cache holds one 2-D 'logits' tensor, got {shapes}")
    try:
        dataset_hash = int(meta["dataset_hash"], 16)
    except (KeyError, TypeError, ValueError):
        raise HeaderError(f"{path}: header meta needs a hex 'dataset_hash'") from None
    if not 0 <= dataset_hash < 2**64:
        raise HeaderError(f"{path}: 'dataset_hash' {meta['dataset_hash']!r} is not a 64-bit digest")
    rows = meta.get("rows")
    if not is_int(rows) or rows != arrays["logits"].shape[0]:
        raise HeaderError(f"{path}: header meta 'rows' is {rows!r}, its 'logits' tensor has "
                          f"{arrays['logits'].shape[0]} rows")
    return LogitCache(logits=arrays["logits"], dataset_hash=dataset_hash)

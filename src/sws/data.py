"""Datasets: a deterministic synthetic task, an IDX loader, splits, batches.

The synthetic task assigns sample t the label t mod K and renders a 2-d
sinusoid whose row/column frequencies are functions of the class, plus
bounded per-pixel noise from a SplitMix64 stream seeded with (seed XOR t).
The exact construction is part of the package contract: two runs (or two
implementations following the same recipe) must produce bit-identical
integer noise streams, so generation never touches a library RNG.

An IDX dataset keeps the file's uint8 pixels as its rows. They become
float32 p / 255 in [0, 1] only where they are read, one batch or one hash
block at a time, so the float32 images of a whole split never exist at once.
Scaling is elementwise: every batch, hash and artifact has the bits it would
have had if the whole file had been scaled first.

Content hashing uses 64-bit FNV-1a over the float32 images (little-endian,
C order) followed by the labels as little-endian uint32.
The hash keys cached teacher logits to the dataset they were computed on.

FNV-1a is computed exactly, but a chunk of bytes at a time in numpy rather
than a byte at a time. With state h, byte b and prime P = 0x100000001B3, one
step is h' = (h ^ b) * P mod 2**64. Per chunk:

- Low byte. The low byte of h' depends only on the low byte l of h and on
  b. Since P is odd, bit j of x * P is bit j of x XOR bit j of
  (x mod 2**j) * P, and the second term uses lower bits only. So bit j of
  l_{k+1} is bit j of l_k XOR a bit c_k computed from planes below j:
  c_k = bit j of ((l_k ^ b_k) * P) with planes j..7 of l_k still zero. Each
  of the 8 bit-planes of the low-byte sequence is then an inclusive prefix
  XOR, solved plane by plane from the bottom up.
- Full 64 bits. Once every l_k is known, h_k ^ b_k = h_k + e_k with
  e_k = (b_k ^ l_k) - l_k, so h_n = P**n * h_0 + sum_k e_k * P**(n - k)
  mod 2**64: one wrapping dot product against a cached table of powers of P.
- Prefix XOR. Bits are packed into 64-bit words, each word is scanned
  with shifts by 1, 2, 4, 8, 16 and 32, every word whose predecessors have
  odd parity is flipped, and the words are unpacked again. This is about
  ten times faster than np.bitwise_xor.accumulate on one byte per bit.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import GAMMA, MASK64, SplitMix64, _finalize64_np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class DataError(ValueError):
    pass


class IdxFormatError(DataError):
    pass


_CHUNK = 1 << 16  # bytes per vectorised step; its working set stays in cache
_WORD_SHIFTS = tuple(np.uint64(1 << i) for i in range(6))


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of a bytes-like object."""
    return _fnv1a64_update(FNV_OFFSET, np.frombuffer(data, dtype=np.uint8))


@functools.cache
def _fnv_powers() -> np.ndarray:
    """P**_CHUNK, ..., P**2, P**1 mod 2**64; a chunk of m bytes uses the last m."""
    powers = np.multiply.accumulate(np.full(_CHUNK, FNV_PRIME, dtype=np.uint64))[::-1].copy()
    powers.flags.writeable = False
    return powers


def _prefix_xor(bits: np.ndarray, count: int) -> np.ndarray:
    """Inclusive prefix XOR of bits[:count] (nonzero counts as 1), as 0/1 uint8.

    len(bits) must be a multiple of 64; entries past count only affect
    outputs past count, so they may hold anything.
    """
    packed = np.packbits(bits, bitorder="little")
    words = packed.view("<u8")
    for s in _WORD_SHIFTS:
        words ^= words << s
    parity = np.bitwise_xor.accumulate(words >> np.uint64(63))
    words[1:] ^= np.uint64(0) - parity[:-1]
    return np.unpackbits(packed, count=count, bitorder="little")


def _fnv1a64_update(h: int, buf: np.ndarray) -> int:
    """Continue FNV-1a state h over the 1-d uint8 array buf (see the module docstring)."""
    powers = _fnv_powers()
    width = min(buf.size, _CHUNK)
    x = np.empty(width, np.uint8)
    low = np.empty(width + 1, np.uint8)
    bits = np.empty(-(-(width + 1) // 64) * 64, np.uint8)
    for start in range(0, buf.size, _CHUNK):
        b = buf[start:start + _CHUNK]
        m = b.size
        xs, lo, lm = x[:m], low[:m + 1], low[:m]
        lo.fill(0)  # lo[k] = low byte of the state before byte k; lo[m] after the chunk
        for j in range(8):
            np.bitwise_xor(lm, b, out=xs)
            np.multiply(xs, np.uint8(FNV_PRIME & 0xFF), out=xs)
            np.bitwise_and(xs, np.uint8(1 << j), out=bits[1:m + 1])
            bits[0] = (h >> j) & 1
            plane = _prefix_xor(bits, m + 1)
            np.multiply(plane, np.uint8(1 << j), out=plane)  # faster than a uint8 shift
            lo |= plane
        e = np.bitwise_xor(b, lm).astype(np.int16)  # int16 first: cheaper than subtracting in int64
        e -= lm
        p = powers[_CHUNK - m:].view(np.int64)  # signed and unsigned products agree mod 2**64
        h = (h * int(powers[_CHUNK - m]) + int(np.dot(e.astype(np.int64), p))) & MASK64
    return h


def _fnv1a64_rows(h: int, arr: np.ndarray, dtype: str, decode=np.asarray) -> int:
    """Continue h over decode(arr) as C-order bytes of dtype, a chunk of rows at a time.

    At most one block of rows is decoded and converted at a time, so arr is never copied whole.
    """
    row_bytes = arr[:1].size * np.dtype(dtype).itemsize
    rows = max(1, _CHUNK // max(row_bytes, 1))
    for i in range(0, len(arr), rows):
        block = np.ascontiguousarray(decode(arr[i:i + rows]), dtype=dtype)
        h = _fnv1a64_update(h, block.reshape(-1).view(np.uint8))
    return h


def _decoded(rows: np.ndarray) -> np.ndarray:
    """uint8 pixels as float32 p / 255 in [0, 1]; float32 rows as they are."""
    if rows.dtype != np.uint8:
        return rows
    images = rows.astype(np.float32)
    images /= np.float32(255.0)  # in place: one float32 copy, not two
    return images


class Dataset:
    """(N, C, H, W) images with their (N,) int64 labels.

    ``rows`` holds the images as given: float32 in [0, 1], or uint8 pixels
    that decode to float32 where they are read (``batch_iter``,
    ``content_hash``). ``images`` is always float32, so on uint8 rows it
    decodes the whole dataset; the pipeline reads ``rows`` instead.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, num_classes: int, source: str):
        if images.ndim != 4 or images.dtype not in (np.float32, np.uint8):
            raise DataError(f"images must be float32 or uint8 (N,C,H,W), got {images.dtype} {images.shape}")
        if labels.shape != (images.shape[0],):
            raise DataError(f"labels shape {labels.shape} does not match {images.shape[0]} images")
        if images.shape[0] == 0:
            raise DataError("empty dataset")
        self.rows, self.labels, self.num_classes, self.source = images, labels, num_classes, source
        self._hash: int | None = None

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def images(self) -> np.ndarray:
        return _decoded(self.rows)

    @images.setter
    def images(self, images: np.ndarray) -> None:
        self.rows = images

    @property
    def content_hash(self) -> int:
        if self._hash is None:
            self._hash = _fnv1a64_rows(_fnv1a64_rows(FNV_OFFSET, self.rows, "<f4", _decoded), self.labels, "<u4")
        return self._hash


# ---- synthetic task ----------------------------------------------------------


def make_synthetic(n: int, classes: int, size: int, seed: int) -> Dataset:
    """n single-channel size x size images; sample t gets label t mod classes.

    pixel(i, j) = 0.5 + 0.35 sin(2 pi ((1+c) i + (1 + (3c mod K)) j) / S)
                  + 0.15 u,   clamped to [0, 1],
    where u in [-1, 1) comes from sample t's own SplitMix64 stream (seeded
    seed XOR t), one draw per pixel in row-major order, each 64-bit output
    mapped through its top 53 bits over 2**53.
    """
    if n < 1 or classes < 1 or size < 1:
        raise DataError(f"need n, classes, size >= 1, got {n}, {classes}, {size}")
    labels = np.arange(n, dtype=np.int64) % classes
    c = labels.astype(np.float64)
    freq_i = 1.0 + c
    freq_j = 1.0 + ((3 * labels) % classes).astype(np.float64)

    ii, jj = np.meshgrid(np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64), indexing="ij")
    phase = (freq_i[:, None, None] * ii[None] + freq_j[:, None, None] * jj[None]) / size
    base = 0.5 + 0.35 * np.sin(2.0 * np.pi * phase)

    # Per-sample streams, all samples and pixels in one vectorized pass:
    # draw k of stream t is finalize((seed ^ t) + k * GAMMA), k = 1..S*S.
    seeds = np.uint64(seed & MASK64) ^ np.arange(n, dtype=np.uint64)
    ks = np.arange(1, size * size + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _finalize64_np(seeds[:, None] + ks[None, :] * np.uint64(GAMMA))
    u = 2.0 * ((z >> np.uint64(11)).astype(np.float64) / float(1 << 53)) - 1.0
    u = u.reshape(n, size, size)

    images = np.clip(base + 0.15 * u, 0.0, 1.0).astype(np.float32)[:, None, :, :]
    return Dataset(images=images, labels=labels, num_classes=classes,
                   source=f"synthetic(n={n},classes={classes},size={size},seed={seed})")


# ---- IDX loading ----------------------------------------------------------------


@dataclass(frozen=True)
class IdxFiles:
    """An IDX image/label file pair whose headers and sizes have been checked:
    ``count`` images of ``rows`` x ``cols`` uint8 pixels, one uint8 label each."""
    images_path: object
    labels_path: object
    count: int
    rows: int
    cols: int
    images_at: int  # payload offsets
    labels_at: int

    @property
    def source(self) -> str:
        return f"idx({self.images_path},{self.labels_path})"


def _head(path, ndims: int) -> tuple[bytes, int]:
    """The first bytes of an IDX file, as many as its header takes, and the file's size."""
    with open(path, "rb") as fh:
        return fh.read(4 + 4 * ndims), os.fstat(fh.fileno()).st_size


def _read_idx_header(raw: bytes, path, magic_want: int, ndims: int) -> tuple[tuple[int, ...], int]:
    head = 4 + 4 * ndims
    if len(raw) < head:
        raise IdxFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != magic_want:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}, expected 0x{magic_want:08x}")
    dims = struct.unpack(f">{ndims}I", raw[4:head])
    return dims, head


def check_idx(images_path, labels_path) -> IdxFiles:
    """Check an IDX image/label file pair from its headers and file sizes,
    reading no pixels."""
    raw_img, size = _head(images_path, 3)
    raw_lab, lab_size = _head(labels_path, 1)
    (n, h, w), off = _read_idx_header(raw_img, images_path, IDX_IMAGES_MAGIC, 3)
    if size != off + n * h * w:
        raise IdxFormatError(f"{images_path}: payload is {size - off} bytes, expected {n * h * w}")
    (n_lab,), lab_off = _read_idx_header(raw_lab, labels_path, IDX_LABELS_MAGIC, 1)
    if lab_size != lab_off + n_lab:
        raise IdxFormatError(f"{labels_path}: payload is {lab_size - lab_off} bytes, expected {n_lab}")
    if n != n_lab:
        raise IdxFormatError(f"count mismatch: {n} images vs {n_lab} labels")
    if n == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    return IdxFiles(images_path, labels_path, n, h, w, off, lab_off)


def _read_payload(path, offset: int, nbytes: int) -> np.ndarray:
    """nbytes of path from offset, read straight into a uint8 array."""
    out = np.empty(nbytes, np.uint8)
    with open(path, "rb") as fh:
        fh.seek(offset)
        got = fh.readinto(out)
    if got != nbytes:  # the file shrank since it was checked
        raise IdxFormatError(f"{path}: payload is {got} bytes, expected {nbytes}")
    return out


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair. The images stay the file's uint8
    pixels, shaped (N, 1, H, W), and decode to [0, 1] where they are read."""
    files = check_idx(images_path, labels_path)
    n, h, w = files.count, files.rows, files.cols
    pixels = _read_payload(files.images_path, files.images_at, n * h * w).reshape(n, 1, h, w)
    labels = _read_payload(files.labels_path, files.labels_at, n).astype(np.int64)
    return Dataset(images=pixels, labels=labels, num_classes=int(labels.max()) + 1, source=files.source)


# ---- splits and batches ----------------------------------------------------------


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded permutation, then a prefix/suffix split. Both sides non-empty.
    Each side gathers its rows in their stored dtype, so uint8 stays uint8."""
    if not (0.0 < train_fraction < 1.0):
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(data)
    k = int(n * train_fraction)
    if k < 1 or n - k < 1:
        raise DataError(f"split of {n} samples at {train_fraction} leaves an empty side")
    perm = SplitMix64(seed).permutation(n)

    def take(idx: np.ndarray, tag: str) -> Dataset:
        return Dataset(images=np.ascontiguousarray(data.rows[idx]),
                       labels=np.ascontiguousarray(data.labels[idx]),
                       num_classes=data.num_classes,
                       source=f"{data.source}/{tag}")

    return take(perm[:k], "train"), take(perm[k:], "val")


def batch_iter(data: Dataset, batch_size: int, shuffle_seed: int | None = None):
    """Yield (images, labels, indices) batches; the last one may be short.

    Without a seed the dataset order is kept; with one, a SplitMix64
    permutation of that seed decides the order. uint8 rows are decoded
    one batch at a time.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    n = len(data)
    order = np.arange(n, dtype=np.int64) if shuffle_seed is None else SplitMix64(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        rows = idx if shuffle_seed is not None else slice(start, start + batch_size)  # a slice gives views
        yield _decoded(data.rows[rows]), data.labels[rows], idx

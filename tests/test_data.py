import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sws.data import (
    _CHUNK,
    DataError,
    Dataset,
    IdxFormatError,
    batch_iter,
    fnv1a64,
    load_idx,
    make_synthetic,
    split,
)
from sws.rng import SplitMix64
from sws.train import LogitCache, StaleCacheError


# ---- hashing ---------------------------------------------------------------------


def test_fnv1a64_published_vectors():
    # Reference values of the 64-bit FNV-1a function.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def fnv1a64_reference(data: bytes) -> int:
    # The definition, one byte at a time.
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@settings(max_examples=40, deadline=None)
@given(length=st.integers(0, 2 * _CHUNK + 70), seed=st.integers(0, 2**32 - 1))
@example(length=0, seed=0)
@example(length=1, seed=0)
@example(length=63, seed=1)
@example(length=64, seed=2)
@example(length=65, seed=3)
@example(length=_CHUNK - 1, seed=4)
@example(length=_CHUNK, seed=5)
@example(length=_CHUNK + 1, seed=6)
def test_fnv1a64_matches_scalar_reference(length, seed):
    data = np.random.default_rng(seed).integers(0, 256, length, dtype=np.uint8).tobytes()
    assert fnv1a64(data) == fnv1a64_reference(data)


def test_content_hash_golden_value():
    # Logit caches store this digest: a change here makes every cache stale.
    assert make_synthetic(64, 10, 12, 0).content_hash == 0x7C6142218AAFEAC2


@pytest.mark.parametrize("args, digest", [((1280, 10, 16, 5), 0x7D99C837642B4C90),   # depth-sweep's size
                                          ((2000, 10, 12, 7), 0xFD2B8AB783E7F20F)])  # tied-train's size
def test_content_hash_golden_value_at_the_benchmark_sizes(args, digest):
    assert make_synthetic(*args).content_hash == digest


def test_content_hash_ignores_byte_order_and_layout():
    ds = make_synthetic(40, 3, 5, seed=2)
    for images in (ds.images.astype(">f4"), np.asfortranarray(ds.images)):
        other = Dataset(images=ds.images, labels=ds.labels, num_classes=3, source="x")
        other.images = images  # big-endian images fail validation, so swap them in afterwards
        assert other.content_hash == ds.content_hash


def test_assigning_images_drops_the_cached_content_hash():
    ds, other = make_synthetic(40, 3, 4, 1), make_synthetic(40, 3, 4, 2)
    cache = LogitCache(logits=np.zeros((40, 3), np.float32), dataset_hash=ds.content_hash)
    assert ds.content_hash == 0x7CD65A8E449982C5
    ds.images = other.images  # same labels, other pixels
    assert ds.content_hash == other.content_hash == 0xC63828BC13960CE2
    with pytest.raises(StaleCacheError, match="dataset hash"):
        cache.check(ds)


@pytest.mark.parametrize("attr", ["rows", "labels"])
def test_assigning_rows_or_labels_drops_the_cached_content_hash(attr):
    ds, other = make_synthetic(40, 3, 4, 1), make_synthetic(40, 3, 4, 2)
    cache = LogitCache(logits=np.zeros((40, 3), np.float32), dataset_hash=ds.content_hash)
    assert ds.content_hash == 0x7CD65A8E449982C5
    setattr(ds, attr, other.rows if attr == "rows" else (ds.labels + 1) % 3)
    fresh = Dataset(images=ds.rows, labels=ds.labels, num_classes=3, source="x").content_hash
    assert ds.content_hash == fresh != 0x7CD65A8E449982C5
    if attr == "rows":  # same labels, other pixels
        assert fresh == other.content_hash == 0xC63828BC13960CE2
    with pytest.raises(StaleCacheError, match="dataset hash"):
        cache.check(ds)


def test_content_hash_makes_no_full_copy():
    images = np.random.default_rng(0).random((2560, 1, 32, 32), dtype=np.float32)  # 10 MiB
    ds = Dataset(images=images, labels=np.arange(2560) % 10, num_classes=10, source="x")
    tracemalloc.start()
    try:
        ds.content_hash
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 4


def test_content_hash_matches_manual_recompute():
    ds = make_synthetic(8, 3, 4, seed=1)
    manual = fnv1a64(ds.images.tobytes() + ds.labels.astype("<u4").tobytes())
    assert ds.content_hash == manual
    assert ds.content_hash == manual  # cached second read


def test_content_hash_sensitive_to_pixels_and_labels():
    a = make_synthetic(8, 3, 4, seed=1)
    b = make_synthetic(8, 3, 4, seed=2)
    assert a.content_hash != b.content_hash
    c = Dataset(images=a.images.copy(), labels=(a.labels + 1) % 3, num_classes=3, source="x")
    assert c.content_hash != a.content_hash


# ---- synthetic task ---------------------------------------------------------------


def test_synthetic_shapes_and_ranges():
    ds = make_synthetic(10, 4, 6, seed=3)
    assert ds.images.shape == (10, 1, 6, 6)
    assert ds.images.dtype == np.float32
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert ds.num_classes == 4


def test_synthetic_bit_identical_regeneration():
    a = make_synthetic(50, 7, 9, seed=123)
    b = make_synthetic(50, 7, 9, seed=123)
    assert np.array_equal(a.images, b.images)
    assert a.content_hash == b.content_hash


def test_synthetic_pixel_formula_spot_check():
    # Recompute two pixels of two samples with scalar arithmetic only.
    n, k, s, seed = 5, 3, 4, 11
    ds = make_synthetic(n, k, s, seed=seed)
    for t in (0, 3):
        c = t % k
        stream = SplitMix64(seed ^ t)
        u = stream.block_uniform_signed(s * s).reshape(s, s)
        for (i, j) in ((0, 0), (2, 3)):
            base = 0.5 + 0.35 * np.sin(2.0 * np.pi * ((1 + c) * i + (1 + (3 * c) % k) * j) / s)
            want = np.float32(np.clip(base + 0.15 * u[i, j], 0.0, 1.0))
            assert ds.images[t, 0, i, j] == want, (t, i, j)


def test_synthetic_noise_stream_is_per_sample():
    # Same seed, shifted sample index: sample t's pixels depend on seed ^ t,
    # so inserting a sample changes nothing about the others.
    a = make_synthetic(6, 3, 4, seed=9)
    b = make_synthetic(4, 3, 4, seed=9)
    assert np.array_equal(a.images[:4], b.images[:4])


def test_synthetic_builds_its_images_in_at_most_three_full_size_arrays():
    n, size = 1280, 16
    pixels = n * size * size
    make_synthetic(4, 2, 4, seed=0)  # first-call allocations stay outside the trace
    tracemalloc.start()
    try:
        ds = make_synthetic(n, 10, size, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Three float64 pixel arrays (phase/base, uint64 draws, noise), the float32 images and 1 MiB.
    bound = 3 * 8 * pixels + ds.images.nbytes + (1 << 20)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over a bound of {bound / 2**20:.2f} MiB"


@pytest.mark.parametrize("n, size", [(1280, 16), (60000, 12)], ids=["depth-sweep-size", "large-n"])
def test_synthetic_peaks_at_its_images_plus_a_block(n, size):
    make_synthetic(4, 2, 4, seed=0)  # first-call allocations stay outside the trace
    tracemalloc.start()
    try:
        ds = make_synthetic(n, 10, size, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = ds.rows.nbytes + (4 << 20)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over a bound of {bound / 2**20:.2f} MiB"


@pytest.mark.parametrize("args, digest", [((1, 1, 1, 0), 0xFEECCDFFCFCA34EB),
                                          ((3, 2, 100, 11), 0x72E7869B18DA1323),  # one sample per block
                                          ((57, 1000, 33, -5), 0x60AFF9A56F52837E),
                                          ((333, 7, 13, 2**64 - 1), 0xA98D2B40FEDCCD9F)])
def test_synthetic_bits_do_not_depend_on_the_block(args, digest):
    # Digests of the whole-array recipe, across block edges and odd sizes.
    assert make_synthetic(*args).content_hash == digest


def test_synthetic_validates_arguments():
    with pytest.raises(DataError):
        make_synthetic(0, 3, 4, seed=0)
    with pytest.raises(DataError):
        make_synthetic(5, 0, 4, seed=0)


def test_dataset_validates_shapes():
    with pytest.raises(DataError):
        Dataset(images=np.zeros((2, 4, 4), dtype=np.float32), labels=np.zeros(2, dtype=np.int64),
                num_classes=2, source="x")
    with pytest.raises(DataError):
        Dataset(images=np.zeros((2, 1, 4, 4), dtype=np.float64), labels=np.zeros(2, dtype=np.int64),
                num_classes=2, source="x")
    with pytest.raises(DataError):
        Dataset(images=np.zeros((2, 1, 4, 4), dtype=np.float32), labels=np.zeros(3, dtype=np.int64),
                num_classes=2, source="x")


# ---- IDX -------------------------------------------------------------------------


def write_idx_pair(tmp_path, images, labels):
    n, h, w = images.shape
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())
    return ip, lp


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.images.shape == (5, 1, 3, 4)
    assert ds.num_classes == 3
    np.testing.assert_allclose(ds.images[:, 0], images / 255.0, rtol=1e-6)
    assert ds.labels.tolist() == labels.tolist()


def test_load_idx_bad_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    raw = bytearray(ip.read_bytes())
    raw[3] = 0x05
    ip.write_bytes(bytes(raw))
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx(ip, lp)


def test_load_idx_truncated_payload(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    ip.write_bytes(ip.read_bytes()[:-1])
    with pytest.raises(IdxFormatError, match="payload"):
        load_idx(ip, lp)


def test_load_idx_oversized_payload(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    ip.write_bytes(ip.read_bytes() + b"\x00")
    with pytest.raises(IdxFormatError, match="payload"):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
    with pytest.raises(IdxFormatError, match="mismatch"):
        load_idx(ip, lp)


def test_load_idx_truncated_header(tmp_path):
    ip = tmp_path / "img.idx"
    ip.write_bytes(b"\x00\x00\x08")
    lp = tmp_path / "lab.idx"
    lp.write_bytes(struct.pack(">II", 0x801, 0))
    with pytest.raises(IdxFormatError, match="header"):
        load_idx(ip, lp)


# ---- split and batches --------------------------------------------------------------


def test_split_partitions_dataset():
    ds = make_synthetic(20, 4, 4, seed=5)
    tr, va = split(ds, 0.75, seed=2)
    assert len(tr) == 15 and len(va) == 5
    # Each original row appears exactly once across the two sides.
    perm = SplitMix64(2).permutation(20)
    np.testing.assert_array_equal(tr.images, ds.images[perm[:15]])
    np.testing.assert_array_equal(va.labels, ds.labels[perm[15:]])
    assert tr.num_classes == ds.num_classes


def test_split_sides_are_contiguous_views_of_one_permuted_copy():
    ds = make_synthetic(20, 4, 4, seed=5)
    tr, va = split(ds, 0.75, seed=2)
    for a, b in ((tr.rows, va.rows), (tr.labels, va.labels)):
        assert a.base is not None and a.base is b.base
        assert not np.shares_memory(a, b) and not np.shares_memory(a, ds.rows) and not np.shares_memory(a, ds.labels)
        assert a.flags.c_contiguous and b.flags.c_contiguous


def test_split_deterministic_and_seeded():
    ds = make_synthetic(20, 4, 4, seed=5)
    a1, _ = split(ds, 0.5, seed=3)
    a2, _ = split(ds, 0.5, seed=3)
    b1, _ = split(ds, 0.5, seed=4)
    assert np.array_equal(a1.images, a2.images)
    assert not np.array_equal(a1.images, b1.images)


def test_split_rejects_degenerate():
    ds = make_synthetic(3, 3, 4, seed=0)
    with pytest.raises(DataError):
        split(ds, 0.05, seed=0)
    with pytest.raises(DataError):
        split(ds, 1.5, seed=0)


def test_batch_iter_covers_data_in_order():
    ds = make_synthetic(10, 2, 4, seed=1)
    batches = list(batch_iter(ds, 4))
    assert [len(b[1]) for b in batches] == [4, 4, 2]
    got = np.concatenate([idx for _, _, idx in batches])
    np.testing.assert_array_equal(got, np.arange(10))
    np.testing.assert_array_equal(batches[0][0], ds.images[:4])


def test_batch_iter_shuffles_with_seed():
    ds = make_synthetic(10, 2, 4, seed=1)
    idx = np.concatenate([i for _, _, i in batch_iter(ds, 3, shuffle_seed=7)])
    np.testing.assert_array_equal(np.sort(idx), np.arange(10))
    np.testing.assert_array_equal(idx, SplitMix64(7).permutation(10))
    imgs0 = next(iter(batch_iter(ds, 3, shuffle_seed=7)))[0]
    np.testing.assert_array_equal(imgs0, ds.images[idx[:3]])


def test_batch_iter_rejects_bad_size():
    ds = make_synthetic(4, 2, 4, seed=1)
    with pytest.raises(DataError):
        list(batch_iter(ds, 0))


def test_dataset_rejects_zero_rows():
    with pytest.raises(DataError, match="empty"):
        Dataset(images=np.zeros((0, 1, 4, 4), dtype=np.float32), labels=np.zeros(0, dtype=np.int64),
                num_classes=2, source="x")

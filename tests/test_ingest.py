"""Reading each input byte once: the IDX split and the .sws container.

An IDX dataset keeps its uint8 rows through the split and decodes them to
float32 one batch or hash block at a time; ``store.load`` reads each tensor
straight into its own array and checks it for NaN and infinity without a
mask the size of the tensor. Both keep every bit of the old results, and
both are held to a tracemalloc peak.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest

import sws.data
from sws.cli import datasets_from, main
from sws.data import Dataset, batch_iter, fnv1a64, load_idx, make_synthetic, split
from sws.store import MAGIC, VERSION, OverlapError, load, load_logit_cache, save, save_logit_cache
from sws.tensor import Tensor
from sws.train import cache_teacher_logits
from sws.vit import ModelConfig, build_model, forward_logits

MiB = 1 << 20


def write_idx(tmp_path, n, size, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, size, size), dtype=np.uint8)
    labels = (np.arange(n) % 10).astype(np.uint8)
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, size, size) + images.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(ip), str(lp)


def idx_config(ip, lp, fraction, seed):
    return {"data": {"idx": {"images": ip, "labels": lp}, "train_fraction": fraction, "split_seed": seed}}


def traced_peak(fn):
    """(fn(), the tracemalloc peak while it ran, in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---- the IDX split ------------------------------------------------------------------


@pytest.mark.parametrize("fraction, seed", [(0.8, 0), (0.5, 7), (0.13, 12345)])
def test_cli_idx_split_equals_split_of_load_idx(tmp_path, fraction, seed):
    ip, lp = write_idx(tmp_path, n=300, size=8, seed=seed)
    got = datasets_from(idx_config(ip, lp, fraction, seed))
    want = split(load_idx(ip, lp), fraction, seed)
    for g, w in zip(got, want):
        assert g.images.dtype == w.images.dtype == np.float32 and g.images.shape == w.images.shape
        assert g.images.flags.c_contiguous
        assert np.array_equal(g.images.view(np.uint32), w.images.view(np.uint32))
        assert g.labels.dtype == w.labels.dtype and np.array_equal(g.labels, w.labels)
        assert (g.num_classes, g.source) == (w.num_classes, w.source)
        assert g.content_hash == w.content_hash


def test_idx_split_peaks_at_the_float32_sides_plus_the_file(tmp_path):
    ip, lp = write_idx(tmp_path, n=6000, size=28)
    file_bytes = 6000 * 28 * 28
    (train, val), peak = traced_peak(lambda: datasets_from(idx_config(ip, lp, 0.8, 3)))
    sides = train.images.nbytes + val.images.nbytes
    assert sides == 4 * file_bytes
    assert peak <= sides + file_bytes + MiB, f"peak {peak / MiB:.1f} MiB for {sides / MiB:.1f} MiB of images"


@pytest.mark.parametrize("fraction, seed", [(0.8, 0), (0.37, 9)])
def test_uint8_rows_give_the_bits_of_their_float32_decode(tmp_path, fraction, seed):
    ip, lp = write_idx(tmp_path, n=301, size=8, seed=seed)
    teacher = build_model(ModelConfig(image_size=8, patch_size=4, channels=1, depth=1, width=8, heads=2,
                                      classes=10), seed=2)
    for side in datasets_from(idx_config(ip, lp, fraction, seed)):
        ref = Dataset(images=side.images, labels=side.labels, num_classes=side.num_classes, source=side.source)
        assert side.rows.dtype == np.uint8 and ref.rows.dtype == np.float32
        assert side.content_hash == ref.content_hash
        for shuffle_seed in (None, 11):
            got, want = list(batch_iter(side, 32, shuffle_seed)), list(batch_iter(ref, 32, shuffle_seed))
            assert len(got) == len(want)
            for (g_images, g_labels, g_idx), (w_images, w_labels, w_idx) in zip(got, want):
                assert g_images.dtype == np.float32
                assert np.array_equal(g_images.view(np.uint32), w_images.view(np.uint32))
                assert np.array_equal(g_labels, w_labels) and np.array_equal(g_idx, w_idx)
        save_logit_cache(cache_teacher_logits(teacher, side), tmp_path / "a.sws")
        save_logit_cache(cache_teacher_logits(teacher, ref), tmp_path / "b.sws")
        assert (tmp_path / "a.sws").read_bytes() == (tmp_path / "b.sws").read_bytes()


def test_an_idx_split_holds_uint8_sides_and_hashes_a_block_at_a_time(tmp_path):
    ip, lp = write_idx(tmp_path, n=6000, size=28)
    file_bytes = 6000 * 28 * 28
    fnv1a64(b"")  # builds the hash's table of powers, once per process, outside the trace
    tracemalloc.start()
    try:
        train, val = datasets_from(idx_config(ip, lp, 0.8, 3))
        split_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        train.content_hash
        hash_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sides = file_bytes + 8 * 6000  # uint8 pixels and int64 labels of both sides
    assert split_peak <= 2 * file_bytes + MiB, f"peak {split_peak / MiB:.1f} MiB for a {file_bytes / MiB:.1f} MiB file"
    assert hash_peak <= sides + MiB, f"hash peak {hash_peak / MiB:.1f} MiB over {sides / MiB:.1f} MiB of sides"


def test_train_teacher_on_idx_data_decodes_at_most_one_batch_at_a_time(tmp_path, monkeypatch):
    ip, lp = write_idx(tmp_path, n=600, size=16)
    cfg = {"model": {"image_size": 16, "patch_size": 8, "channels": 1, "depth": 1, "width": 8, "heads": 2,
                     "classes": 10},
           "train": {"epochs": 1, "batch_size": 16, "eval_batch_size": 64, "seed": 1},
           **idx_config(ip, lp, 0.8, 5)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    decoded, sizes = sws.data._decoded, []

    def spy(rows):
        if rows.dtype == np.uint8:
            sizes.append(len(rows))
        return decoded(rows)
    monkeypatch.setattr(sws.data, "_decoded", spy)
    assert main(["train-teacher", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
    # Every row of both sides is decoded (training, evaluation, the cache and its
    # hash), never more at once than the cache's batch of 128 of the 480 train rows.
    assert sum(sizes) >= 600 and max(sizes) <= 128


# ---- batches ---------------------------------------------------------------------------


def test_natural_order_batches_are_views_and_shuffled_ones_copies():
    ds = make_synthetic(10, 2, 4, seed=1)
    for images, labels, _ in batch_iter(ds, 4):
        assert np.shares_memory(images, ds.images) and np.shares_memory(labels, ds.labels)
    for images, labels, _ in batch_iter(ds, 4, shuffle_seed=3):
        assert not np.shares_memory(images, ds.images) and not np.shares_memory(labels, ds.labels)


def test_teacher_logit_cache_keeps_its_bytes(tmp_path):
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, depth=2, width=16, heads=2, classes=3)
    teacher = build_model(cfg, seed=4)
    data = make_synthetic(23, 3, 8, seed=2)
    cache = cache_teacher_logits(teacher, data, batch_size=5)
    frozen = teacher.detach()
    want = np.concatenate([forward_logits(frozen, Tensor(data.images[np.arange(i, min(i + 5, 23))])).data
                           for i in range(0, 23, 5)])
    assert cache.logits.dtype == np.float32 and np.array_equal(cache.logits.view(np.uint32), want.view(np.uint32))
    save_logit_cache(cache, tmp_path / "a.sws")
    save_logit_cache(type(cache)(logits=want, dataset_hash=data.content_hash), tmp_path / "b.sws")
    assert (tmp_path / "a.sws").read_bytes() == (tmp_path / "b.sws").read_bytes()


# ---- the .sws container ----------------------------------------------------------------


def container(kind, meta, index, payload) -> bytes:
    header = json.dumps({"kind": kind, "meta": meta, "tensors": index},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    return MAGIC + struct.pack("<IQ", VERSION, len(header)) + header + payload


def test_save_writes_each_array_in_c_order_little_endian(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"b": rng.standard_normal((3, 5)).T,  # float64 and Fortran order: cast and reordered
               "a": np.float32(2.5), "c": rng.standard_normal(3).astype(">f4"), "d": np.zeros((0, 4))}
    save(tmp_path / "x.sws", "checkpoint", tensors, {"k": 1})
    index, payload = [], b""
    for name in sorted(tensors):
        raw = np.ascontiguousarray(tensors[name], dtype="<f4").tobytes()
        payload += b"\x00" * (-len(payload) % 8)
        index.append({"length": len(raw), "name": name, "offset": len(payload),
                      "shape": list(np.shape(tensors[name]))})
        payload += raw
    assert (tmp_path / "x.sws").read_bytes() == container("checkpoint", {"k": 1}, index, payload)
    arrays, meta = load(tmp_path / "x.sws", "checkpoint")
    assert meta == {"k": 1} and list(arrays) == sorted(tensors)
    for name, arr in tensors.items():
        assert arrays[name].dtype == np.dtype("<f4") and arrays[name].shape == np.shape(arr)
        assert np.array_equal(arrays[name], np.asarray(arr, dtype=np.float32))


def test_store_load_peaks_at_the_tensor_bytes(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {f"layer{i:02d}.w": rng.standard_normal((256, 1024), dtype=np.float32) for i in range(9)}
    tensors["head_b"] = rng.standard_normal(10, dtype=np.float32)
    path = tmp_path / "big.sws"
    save(path, "checkpoint", tensors, {"cfg": {}})
    (arrays, _), peak = traced_peak(lambda: load(path, "checkpoint"))
    total = sum(a.nbytes for a in arrays.values())
    assert total >= 8 * 10**6 and path.stat().st_size >= total
    assert peak <= total + MiB, f"peak {peak / MiB:.1f} MiB for {total / MiB:.1f} MiB of tensors"
    for name, arr in tensors.items():
        assert np.array_equal(arrays[name].view(np.uint32), arr.view(np.uint32))


def test_store_load_of_one_tensor_peaks_at_its_bytes(tmp_path):
    # The finiteness check must not allocate in proportion to the tensor.
    arr = np.random.default_rng(3).standard_normal((2048, 1024), dtype=np.float32)
    path = tmp_path / "one.sws"
    save(path, "checkpoint", {"w": arr}, {"cfg": {}})
    (arrays, _), peak = traced_peak(lambda: load(path, "checkpoint"))
    assert arr.nbytes >= 8 * MiB
    assert peak <= arr.nbytes + MiB, f"peak {peak / MiB:.2f} MiB for {arr.nbytes / MiB:.1f} MiB of tensor"
    assert np.array_equal(arrays["w"].view(np.uint32), arr.view(np.uint32))


def test_store_round_trips_zero_size_tensors(tmp_path):
    path = tmp_path / "empty.sws"
    save(path, "checkpoint", {"e": np.zeros((0, 3), np.float32), "w": np.ones(2, np.float32)}, {"cfg": {}})
    arrays, _ = load(path, "checkpoint")
    assert arrays["e"].shape == (0, 3) and np.array_equal(arrays["w"], np.ones(2, np.float32))


def test_a_lying_index_allocates_nothing_before_it_is_rejected(tmp_path):
    # 64 entries that all claim the same 1 MiB of payload.
    payload = np.ones(MiB // 4, "<f4").tobytes()
    index = [{"length": MiB, "name": f"t{i:02d}", "offset": 0, "shape": [MiB // 4]} for i in range(64)]
    path = tmp_path / "lying.sws"
    path.write_bytes(container("checkpoint", {}, index, payload))

    def attempt():
        with pytest.raises(OverlapError):
            load(path, "checkpoint")
    _, peak = traced_peak(attempt)
    assert peak < MiB, f"peak {peak / MiB:.1f} MiB for a {path.stat().st_size / MiB:.1f} MiB file"

import json
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sws.data import fnv1a64
from sws.expand import DescendantSpec, init_descendant, pack_from_vanilla
from sws.sharing import StagePlan, build_aux, check_tying, extract_learngene, materialize_untied
from sws.store import (
    MAGIC,
    BadMagicError,
    HeaderError,
    KindError,
    NonFiniteError,
    OverlapError,
    StoreError,
    TruncatedError,
    VersionError,
    load,
    load_checkpoint,
    load_learngene,
    load_logit_cache,
    save,
    save_checkpoint,
    save_learngene,
    save_logit_cache,
)
from sws.tensor import Tensor
from sws.train import LogitCache
from sws.vit import ModelConfig, build_model, forward_logits

CFG = ModelConfig(image_size=8, patch_size=4, channels=1, depth=4, width=16, heads=2, classes=3)


def arrays_fixture():
    rng = np.random.default_rng(0)
    return {
        "beta": rng.standard_normal((3, 5)).astype(np.float32),
        "alpha": rng.standard_normal(7).astype(np.float32),
        "gamma": np.float32(2.5).reshape(()),
    }


# ---- raw container -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "x.sws"
    src = arrays_fixture()
    save(path, "checkpoint", src, meta={"note": 1})
    out, meta = load(path, "checkpoint")
    assert meta == {"note": 1}
    assert set(out) == set(src)
    for name in src:
        assert out[name].dtype == np.float32
        assert np.array_equal(out[name], src[name]), name
        assert out[name].shape == src[name].shape


def test_save_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.sws", tmp_path / "b.sws"
    save(a, "learngene", arrays_fixture(), meta={"k": "v"})
    save(b, "learngene", arrays_fixture(), meta={"k": "v"})
    assert a.read_bytes() == b.read_bytes()


def test_container_layout(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.arange(3, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, hlen = struct.unpack_from("<IQ", raw, 4)
    assert version == 1
    assert hlen % 8 == 0
    header = json.loads(raw[16:16 + hlen].decode())
    assert header["kind"] == "checkpoint"
    entry = header["tensors"][0]
    assert entry == {"length": 12, "name": "w", "offset": 0, "shape": [3]}
    payload = raw[16 + hlen:]
    assert np.array_equal(np.frombuffer(payload[:12], dtype="<f4"), [0, 1, 2])


def test_offsets_are_sorted_and_aligned(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", arrays_fixture())
    raw = path.read_bytes()
    _, hlen = struct.unpack_from("<IQ", raw, 4)
    index = json.loads(raw[16:16 + hlen].decode())["tensors"]
    assert [e["name"] for e in index] == ["alpha", "beta", "gamma"]
    for e in index:
        assert e["offset"] % 8 == 0
    assert index[1]["offset"] == 32  # alpha: 28 bytes, padded to 32


def test_save_rejects_duplicates_and_nonfinite(tmp_path):
    path = tmp_path / "x.sws"
    with pytest.raises(ValueError, match="duplicate"):
        save(path, "checkpoint", [("w", np.zeros(2, np.float32)), ("w", np.ones(2, np.float32))])
    with pytest.raises(ValueError, match="non-finite"):
        save(path, "checkpoint", {"w": np.array([1.0, np.nan], np.float32)})
    with pytest.raises(ValueError, match="kind"):
        save(path, "weights", {"w": np.zeros(2, np.float32)})
    assert not path.exists()  # failed saves leave nothing behind


def test_save_atomic_replace(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.zeros(2, np.float32)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save(path, "checkpoint", {"w": np.array([np.inf, 0.0], np.float32)})
    assert path.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_save_gives_the_mode_a_plain_open_gives(tmp_path, umask):
    before = os.umask(umask)
    try:
        save(tmp_path / "x.sws", "checkpoint", {"w": np.zeros(2, np.float32)})
        open(tmp_path / "plain", "w").close()
    finally:
        os.umask(before)
    mode = stat.S_IMODE(os.stat(tmp_path / "x.sws").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o666 & ~umask


def test_load_bad_magic(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.zeros(2, np.float32)})
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ZIP!"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load(path, "checkpoint")


def test_load_wrong_version(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.zeros(2, np.float32)})
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError, match="version 9"):
        load(path, "checkpoint")


def test_load_wrong_kind(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "learngene", {"w": np.zeros(2, np.float32)})
    with pytest.raises(KindError):
        load(path, "checkpoint")


def test_load_truncated(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.zeros(64, np.float32)})
    full = path.read_bytes()
    for cut in (2, 10, len(full) - 5):
        path.write_bytes(full[:cut])
        with pytest.raises(TruncatedError):
            load(path, "checkpoint")


def test_load_header_garbage(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"w": np.zeros(2, np.float32)})
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # corrupt the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(HeaderError):
        load(path, "checkpoint")


def _rewrite_index(path, mutate):
    raw = bytearray(path.read_bytes())
    _, hlen = struct.unpack_from("<IQ", raw, 4)
    header = json.loads(raw[16:16 + hlen].decode())
    mutate(header)
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    enc += b" " * (-len(enc) % 8)
    out = raw[:4] + struct.pack("<IQ", 1, len(enc)) + enc + raw[16 + hlen:]
    path.write_bytes(bytes(out))


def test_load_overlapping_tensors(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"a": np.zeros(4, np.float32), "b": np.ones(4, np.float32)})

    def overlap(header):
        header["tensors"][1]["offset"] = 8  # collides with [0, 16)

    _rewrite_index(path, overlap)
    with pytest.raises(OverlapError):
        load(path, "checkpoint")


def test_load_bad_entry_geometry(tmp_path):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"a": np.zeros(4, np.float32)})

    def wrong_length(header):
        header["tensors"][0]["length"] = 12  # shape says 16 bytes

    _rewrite_index(path, wrong_length)
    with pytest.raises(HeaderError):
        load(path, "checkpoint")

    save(path, "checkpoint", {"a": np.zeros(4, np.float32)})

    def misaligned(header):
        header["tensors"][0]["offset"] = 4

    _rewrite_index(path, misaligned)
    with pytest.raises(HeaderError):
        load(path, "checkpoint")


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h["tensors"].append(dict(h["tensors"][0])), id="repeated-name"),
    pytest.param(lambda h: h["tensors"][0].update(shape=[4.0]), id="float-dim"),
    pytest.param(lambda h: h["tensors"][0].update(offset="0"), id="string-offset"),
    pytest.param(lambda h: h["tensors"][0].update(name=5), id="int-name"),
    pytest.param(lambda h: h["tensors"][0].update(shape=[-4], length=-16), id="negative-dim"),
    pytest.param(lambda h: h["tensors"][0].update(shape=[1] * 65, length=4), id="too-many-axes"),
    pytest.param(lambda h: h["tensors"].__setitem__(0, "a"), id="entry-not-object"),
])
def test_load_rejects_malformed_index_entries(tmp_path, edit):
    path = tmp_path / "x.sws"
    save(path, "checkpoint", {"a": np.zeros(4, np.float32)})
    _rewrite_index(path, edit)
    with pytest.raises(HeaderError):
        load(path, "checkpoint")


def test_error_hierarchy():
    for exc in (BadMagicError, VersionError, KindError, TruncatedError, OverlapError, HeaderError):
        assert issubclass(exc, StoreError)


# ---- checkpoints ------------------------------------------------------------------


def batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (n, 1, 8, 8)).astype(np.float32))


def test_untied_checkpoint_round_trip(tmp_path):
    path = tmp_path / "m.sws"
    model = build_model(CFG, seed=3)
    save_checkpoint(model, path, provenance={"run": "unit"})
    back = load_checkpoint(path)
    assert back.cfg == CFG
    assert back.plan is None
    for (na, ta), (nb, tb) in zip(model.named_tensors(), back.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na
    x = batch(3)
    assert np.array_equal(forward_logits(model, x).data, forward_logits(back, x).data)


def test_tied_checkpoint_restores_aliasing(tmp_path):
    path = tmp_path / "aux.sws"
    aux = build_aux(CFG, StagePlan((2, 2)), seed=4)
    save_checkpoint(aux, path)
    back = load_checkpoint(path)
    assert back.plan.stage_sizes == (2, 2)
    check_tying(back)
    assert back.layers[0] is back.layers[1]
    assert back.layers[2] is back.layers[3]
    x = batch(2, seed=5)
    assert np.array_equal(forward_logits(aux, x).data, forward_logits(back, x).data)


def test_tied_checkpoint_stores_stages_once(tmp_path):
    path = tmp_path / "aux.sws"
    aux = build_aux(CFG, StagePlan((2, 2)), seed=4)
    save_checkpoint(aux, path)
    arrays, meta = load(path, "checkpoint")
    stage_names = [n for n in arrays if n.startswith("stage")]
    assert len(stage_names) == 2 * 12  # two stages, twelve tensors each
    assert not any(n.startswith("layer") for n in arrays)
    assert meta["plan"] == [2, 2]


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.sws", tmp_path / "b.sws"
    model = build_model(CFG, seed=6)
    save_checkpoint(model, a)
    save_checkpoint(load_checkpoint(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_missing_tensor(tmp_path):
    path = tmp_path / "m.sws"
    model = build_model(CFG, seed=3)
    pairs = [(n, t.data) for n, t in model.named_tensors() if n != "layer01.up_w"]
    save(path, "checkpoint", pairs, meta={"cfg": CFG.to_dict(), "provenance": {}})
    with pytest.raises(HeaderError, match="layer01.up_w"):
        load_checkpoint(path)


# ---- learngene packs -----------------------------------------------------------------


def test_learngene_round_trip(tmp_path):
    path = tmp_path / "g.sws"
    aux = build_aux(CFG, StagePlan((1, 3)), seed=7)
    pack = extract_learngene(aux, provenance={"epochs": 20})
    save_learngene(pack, path)
    back = load_learngene(path)
    assert back.plan.stage_sizes == (1, 3)
    assert back.cfg == CFG
    assert back.provenance == {"epochs": 20}
    assert back.version == 1
    for m in range(2):
        for name, t in pack.layer_sets[m].named():
            assert np.array_equal(getattr(back.layer_sets[m], name).data, t.data)
    assert np.array_equal(back.pos_embed.data, pack.pos_embed.data)


def test_learngene_rewrite_byte_identical(tmp_path):
    a, b = tmp_path / "a.sws", tmp_path / "b.sws"
    pack = extract_learngene(build_aux(CFG, StagePlan((2, 2)), seed=8))
    save_learngene(pack, a)
    save_learngene(load_learngene(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_model_artifacts_match_golden_digests(tmp_path):
    """Pinned FNV-1a digests of saved models and packs: any change to the
    layout, the naming, the meta or the init draw order shows up here."""
    aux = build_aux(CFG, StagePlan((1, 3)), seed=7)
    save_learngene(extract_learngene(aux, provenance={"epochs": 20}), tmp_path / "pack.sws")
    artifacts = {
        "untied": (save_checkpoint, build_model(CFG, seed=3)),
        "aux": (save_checkpoint, aux),
        "pack": (save_learngene, load_learngene(tmp_path / "pack.sws")),
        "vanilla_pack": (save_learngene, pack_from_vanilla(build_model(CFG, seed=3))),
        "descendant": (save_checkpoint, init_descendant(load_learngene(tmp_path / "pack.sws"),
                                                        DescendantSpec(depth=6))[0]),
        "descendant_new_head": (save_checkpoint, init_descendant(extract_learngene(aux),
                                                                 DescendantSpec(depth=5, classes=7, seed=42))[0]),
        "materialized": (save_checkpoint, materialize_untied(aux)),
    }
    digests = {}
    for name, (saver, obj) in artifacts.items():
        saver(obj, tmp_path / f"{name}.sws")
        digests[name] = f"{fnv1a64((tmp_path / f'{name}.sws').read_bytes()):#018x}"
    assert digests == {
        "untied": "0xa8886b469bb3a1b0",
        "aux": "0x841a97de0c48b8dd",
        "pack": "0x9abbe906e4e12a05",
        "vanilla_pack": "0x9a0148303e58cffb",
        "descendant": "0xe7ac1802ffb0b5aa",
        "descendant_new_head": "0x5c5b27ce7691215a",
        "materialized": "0xece94ecb999c7c9b",
    }


# ---- header meta ---------------------------------------------------------------------


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _with(key, value):
    return lambda meta: {**meta, key: value}


def _cfg_with(**changes):
    return lambda meta: {**meta, "cfg": {**meta["cfg"], **changes}}


@pytest.mark.parametrize("kind, edit, error, match", [
    pytest.param("learngene", _without("cfg"), HeaderError, "no 'cfg'", id="pack-no-cfg"),
    pytest.param("learngene", _without("plan"), HeaderError, "no 'plan'", id="pack-no-plan"),
    pytest.param("learngene", _with("plan", [0, 4]), HeaderError, "plan", id="pack-plan-empty-stage"),
    pytest.param("learngene", _with("plan", ["x", 2]), HeaderError, "plan", id="pack-plan-not-int"),
    pytest.param("learngene", _with("plan", [1, 2]), HeaderError, "cfg.depth is 4", id="pack-plan-sum"),
    pytest.param("learngene", _cfg_with(dropout=0.1), HeaderError, "dropout", id="pack-cfg-unknown-key"),
    pytest.param("learngene", _with("pack_version", 2), VersionError, "pack version 2", id="pack-version"),
    pytest.param("checkpoint", _without("cfg"), HeaderError, "no 'cfg'", id="ckpt-no-cfg"),
    pytest.param("checkpoint", _with("plan", [2, 3]), HeaderError, "cfg.depth is 4", id="ckpt-plan-sum"),
    pytest.param("checkpoint", _with("plan", 4), HeaderError, "plan", id="ckpt-plan-not-list"),
    pytest.param("checkpoint", _cfg_with(dropout=0.1), HeaderError, "dropout", id="ckpt-cfg-unknown-key"),
    pytest.param("checkpoint", _cfg_with(depth="four"), HeaderError, "depth", id="ckpt-cfg-bad-value"),
    pytest.param("checkpoint", _cfg_with(heads=3), HeaderError, "heads", id="ckpt-cfg-inconsistent"),
    pytest.param("checkpoint", lambda meta: [meta], HeaderError, "no 'cfg'", id="ckpt-meta-not-object"),
])
def test_bad_header_meta_rejected(tmp_path, kind, edit, error, match):
    path = tmp_path / "a.sws"
    aux = build_aux(CFG, StagePlan((2, 2)), seed=4)
    if kind == "learngene":
        save_learngene(extract_learngene(aux), path)
    else:
        save_checkpoint(aux, path)
    arrays, meta = load(path, kind)
    save(path, kind, arrays, edit(meta))
    with pytest.raises(error, match=match):
        (load_learngene if kind == "learngene" else load_checkpoint)(path)


# ---- logit caches ----------------------------------------------------------------------


def test_logit_cache_round_trip(tmp_path):
    path = tmp_path / "t.sws"
    logits = np.random.default_rng(1).standard_normal((10, 3)).astype(np.float32)
    cache = LogitCache(logits=logits, dataset_hash=0xDEADBEEFCAFEF00D)
    save_logit_cache(cache, path)
    back = load_logit_cache(path)
    assert np.array_equal(back.logits, logits)
    assert back.dataset_hash == 0xDEADBEEFCAFEF00D


def test_logit_cache_wrong_kind_rejected(tmp_path):
    path = tmp_path / "t.sws"
    save(path, "checkpoint", {"logits": np.zeros((2, 2), np.float32)})
    with pytest.raises(KindError):
        load_logit_cache(path)


def test_logit_cache_bad_content_rejected(tmp_path):
    path = tmp_path / "t.sws"
    good_meta = {"dataset_hash": "0x1", "rows": 2}
    cases = [
        ({"logits": np.zeros((2, 2), np.float32)}, {"rows": 2}),                     # no dataset_hash
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": 7, "rows": 2}),  # not a hex string
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": "0xZZ"}),
        ({"logits": np.zeros(4, np.float32)}, good_meta),                            # not 2-D
        ({"logits": np.zeros((2, 2), np.float32), "more": np.zeros(1, np.float32)}, good_meta),
        ({"other": np.zeros((2, 2), np.float32)}, good_meta),
        ({"logits": np.zeros((4, 2), np.float32)}, {"dataset_hash": "0x1", "rows": 7}),       # rows disagree
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": "0x1"}),                 # no rows
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": "0x1", "rows": 2.0}),    # rows not an int
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": "-0x1", "rows": 2}),     # below 0
        ({"logits": np.zeros((2, 2), np.float32)}, {"dataset_hash": "0x1ffffffffffffffff", "rows": 2}),  # > 64 bits
    ]
    for arrays, meta in cases:
        save(path, "logitcache", arrays, meta)
        with pytest.raises(HeaderError):
            load_logit_cache(path)


# ---- models must match their cfg, tensor for tensor ----------------------------------


@pytest.mark.parametrize("kind, edit, match", [
    pytest.param("checkpoint", lambda a: {**a, "layer00.qkv_b": np.zeros(1, np.float32)}, "layer00.qkv_b",
                 id="ckpt-bias-broadcastable"),
    pytest.param("checkpoint", lambda a: {**a, "head_w": np.zeros((16, 4), np.float32)}, "head_w",
                 id="ckpt-head-classes"),
    pytest.param("checkpoint", lambda a: {**a, "extra": np.zeros(1, np.float32)}, "extra", id="ckpt-extra"),
    pytest.param("checkpoint", lambda a: {**a, "layer04.up_w": a["layer00.up_w"]}, "layer04.up_w",
                 id="ckpt-extra-layer"),
    pytest.param("learngene", lambda a: {**a, "gene00.up_w": a["gene00.up_w"].T.copy()}, "gene00.up_w",
                 id="pack-transposed"),
    pytest.param("learngene", lambda a: {k: v for k, v in a.items() if k != "gene01.ln2_b"}, "gene01.ln2_b",
                 id="pack-missing"),
    pytest.param("learngene", lambda a: {**a, "stage00.up_w": a["gene00.up_w"]}, "stage00.up_w",
                 id="pack-foreign-prefix"),
])
def test_model_tensors_must_match_cfg(tmp_path, kind, edit, match):
    path = tmp_path / "m.sws"
    if kind == "learngene":
        save_learngene(extract_learngene(build_aux(CFG, StagePlan((2, 2)), seed=4)), path)
    else:
        save_checkpoint(build_model(CFG, seed=4), path)
    arrays, meta = load(path, kind)
    save(path, kind, edit(arrays), meta)
    with pytest.raises(HeaderError, match=match):
        (load_learngene if kind == "learngene" else load_checkpoint)(path)


# ---- fuzzing: a damaged container raises a StoreError and nothing else -----------------

_FUZZ_ARRAYS = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3, np.float32),
                "c": np.float32(1.5).reshape(())}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _fuzz_container(tmp_path_factory) -> tuple:
    path = tmp_path_factory.getbasetemp() / "fuzz.sws"
    save(path, "checkpoint", _FUZZ_ARRAYS, meta={"note": [1, 2]})
    return path, path.read_bytes()


def _load_or_store_error(path) -> None:
    try:
        load(path, "checkpoint")
    except StoreError:
        pass


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 8), st.binary(max_size=8)),
                      min_size=1, max_size=3))
def test_load_fuzzed_bytes_raise_only_store_errors(tmp_path_factory, edits):
    """Each edit replaces raw[pos:pos + k] with some bytes: overwrites,
    truncations, insertions and deletions anywhere in the file."""
    path, raw = _fuzz_container(tmp_path_factory)
    for pos, k, new in edits:
        pos = min(pos, len(raw))
        raw = raw[:pos] + new + raw[pos + k:]
    path.write_bytes(raw)
    _load_or_store_error(path)


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from([(), ("kind",), ("meta",), ("tensors",), ("tensors", 0), ("tensors", 0, "name"),
                              ("tensors", 0, "shape"), ("tensors", 1, "offset"), ("tensors", 2, "length")]),
       value=JSON_VALUES)
def test_load_fuzzed_header_values_raise_only_store_errors(tmp_path_factory, where, value):
    """Any JSON value in any place of a well-framed header: a whole header
    that is a list, a 'tensors' that is not a list, an entry that is a string."""
    path, raw = _fuzz_container(tmp_path_factory)
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    header = json.loads(raw[16:16 + hlen])
    if where:
        node = header
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        header = value
    enc = json.dumps(header).encode()
    enc += b" " * (-len(enc) % 8)
    path.write_bytes(raw[:4] + struct.pack("<IQ", 1, len(enc)) + enc + raw[16 + hlen:])
    _load_or_store_error(path)


@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800000, 0xFF800000], ids=["nan", "inf", "-inf"])
def test_load_rejects_a_non_finite_payload(tmp_path, bits):
    path = tmp_path / "a.sws"
    save(path, "checkpoint", arrays_fixture())
    raw = bytearray(path.read_bytes())
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    struct.pack_into("<I", raw, 16 + hlen + 4, bits)  # second value of "alpha", the first tensor
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteError, match="'alpha' has non-finite values"):
        load(path, "checkpoint")
    assert issubclass(NonFiniteError, StoreError)


def test_a_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        save(tmp_path / "a.sws", "checkpoint", {"w": np.ones(3, np.float32)})
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "a.sws"
    save(path, "checkpoint", {"w": np.ones(3, np.float32)})
    with pytest.raises(ValueError, match="expected_kind must be one of"):
        load(path, "bogus")

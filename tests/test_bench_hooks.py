"""The benchmark's traced mode rebinds public names in the sws modules; a
rename in src/ must fail here, not only in the slow benchmark self-test."""

import importlib
import struct
from pathlib import Path

import numpy as np
import pytest

import sws.cli
import sws.sharing
import sws.train
import sws.vit
from sws.data import make_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer({"width": 8, "mlp_dim": 32, "num_patches": 4})
    build_params, extract = sws.sharing.build_params, sws.cli.extract_learngene
    try:
        tracer.install()
        assert sws.sharing.build_params is not build_params
        assert sws.cli.extract_learngene is not extract
    finally:
        tracer.uninstall()
    assert sws.sharing.build_params is build_params
    assert sws.cli.extract_learngene is extract


def test_step_clock_times_each_evaluate_batch(monkeypatch):
    """On depth-sweep, step_ms_* are the hooked forward_logits batches of
    evaluate; an evaluate that bypassed the hook would report 0 ms steps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    cfg = sws.vit.ModelConfig(image_size=8, patch_size=4, channels=1, depth=2, width=8, heads=2, classes=3)
    model, data = sws.vit.build_model(cfg, seed=0), make_synthetic(20, 3, 8, seed=1)
    clock = run.StepClock(workloads.make("depth-sweep", 0))
    clock.install()
    try:
        sws.train.evaluate(model, data, batch_size=8)
    finally:
        clock.uninstall()
    assert len(clock.ms) == 3  # ceil(20 / 8) batches
    assert all(ms > 0 for ms in clock.ms)
    assert sws.train.forward_logits is sws.vit.forward_logits


@pytest.mark.parametrize("kind", ["synthetic", "idx"])
def test_datasets_from_goes_through_the_traced_data_names(tmp_path, monkeypatch, kind):
    """Traced data.split and data.make_synthetic wrap sws.cli.split and
    sws.cli.make_synthetic; a path around them would report 0 s for both."""
    calls = []

    def spy(name):
        fn = getattr(sws.cli, name)
        monkeypatch.setattr(sws.cli, name, lambda *args: calls.append(name) or fn(*args))
    spy("split")
    spy("make_synthetic")
    if kind == "synthetic":
        source = {"synthetic": {"n": 40, "classes": 3, "size": 4, "seed": 1}}
    else:
        ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 40, 4, 4) + bytes(range(40)) * 16)
        lp.write_bytes(struct.pack(">II", 0x801, 40) + (np.arange(40) % 3).astype(np.uint8).tobytes())
        source = {"idx": {"images": str(ip), "labels": str(lp)}}
    sws.cli.datasets_from({"data": {**source, "train_fraction": 0.5, "split_seed": 2}})
    assert sorted(calls) == (["make_synthetic", "split"] if kind == "synthetic" else ["split"])

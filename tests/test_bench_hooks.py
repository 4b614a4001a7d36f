"""The benchmark's traced mode rebinds public names in the sws modules; a
rename in src/ must fail here, not only in the slow benchmark self-test."""

import importlib
from pathlib import Path

import sws.cli
import sws.sharing

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

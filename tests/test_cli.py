import json
import shlex
import tracemalloc
import warnings

import numpy as np
import pytest

import sws.cli
from sws.cli import _SOURCE_RULES, _SPLIT_RULES, CliError, build_parser, load_config, main
from sws.data import DataError, IdxFormatError, make_synthetic
from sws.expand import (DEFAULT_ORDER, STRATEGIES, DescendantSpec, init_descendant, simple_lg_expand,
                        write_assignment_csv)
from sws.sharing import StagePlan, build_aux, extract_learngene
from sws.store import (HeaderError, load, load_checkpoint, load_learngene, load_logit_cache, save,
                       save_checkpoint, save_learngene, save_logit_cache)
from sws.tensor import NumericError
from sws.train import TRAIN_RULES, DivergenceError, StaleCacheError, evaluate
from sws.vit import MAX_SIZE, MODEL_RULES, ModelConfig, build_model, count_params

BASE = {
    "model": {"image_size": 8, "patch_size": 4, "channels": 1,
              "depth": 2, "width": 8, "heads": 2, "classes": 3},
    "plan": {"stages": 2},
    "train": {"epochs": 1, "batch_size": 16, "lr": 1e-3, "alpha": 0.0, "seed": 3},
    "data": {"synthetic": {"n": 120, "classes": 3, "size": 8, "seed": 1},
             "train_fraction": 0.8, "split_seed": 2},
}


def write_config(tmp_path, name="cfg.json", **sections):
    cfg = json.loads(json.dumps(BASE))
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_metrics(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---- config plumbing ----------------------------------------------------------


def test_load_config_set_overrides(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, ["train.lr=0.5", "train.schedule=constant", "extra.flag=true"], seed=99)
    assert cfg["train"]["lr"] == 0.5
    assert cfg["train"]["schedule"] == "constant"  # bare string fallback
    assert cfg["extra"]["flag"] is True
    assert cfg["train"]["seed"] == 99


def test_load_config_rejects_bad_set(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(CliError):
        load_config(path, ["no_equals_sign"])
    with pytest.raises(CliError):
        load_config(path, ["a..b=1"])


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CliError):
        load_config(path, [])


# ---- happy paths ---------------------------------------------------------------


def test_train_teacher_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "teacher"
    assert main(["train-teacher", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "teacher.sws").exists()
    assert (out / "teacher_logits.sws").exists()
    assert (out / "manifest.txt").exists()
    header, rows = read_metrics(out / "metrics.csv")
    assert header == ["epoch", "train_loss", "val_loss", "top1", "seconds"]
    assert len(rows) == 2  # no-tune row + one epoch
    assert rows[0][1] == ""  # epoch 0 has no train loss
    assert all(r[4] == "0.000" for r in rows)  # replayable CSV: no wallclock
    assert "teacher: loss=" in capsys.readouterr().out
    model = load_checkpoint(out / "teacher.sws")
    assert model.cfg.depth == 2 and model.plan is None
    manifest = (out / "manifest.txt").read_text()
    assert "command=train-teacher" in manifest
    assert "artifact.teacher.sws=0x" in manifest
    assert "wallclock_seconds=" in manifest


def test_untrained_eval_sits_at_chance(tmp_path):
    # 3 classes, 24 validation samples: a fresh model's top-1 should sit
    # within 3 binomial standard deviations of 1/3.
    cfg = write_config(tmp_path, train={"epochs": 0})
    out = tmp_path / "chance"
    assert main(["train-teacher", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_metrics(out / "metrics.csv")
    top1 = float(rows[0][3])
    sigma = np.sqrt((1 / 3) * (2 / 3) / 24)
    assert abs(top1 - 1 / 3) <= 3 * sigma


def test_train_aux_and_expand_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path)
    tdir, adir, ddir = tmp_path / "t", tmp_path / "a", tmp_path / "d"
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tdir)]) == 0

    aux_cfg = write_config(tmp_path, "aux.json", train={"epochs": 1, "alpha": 0.9, "tau": 1.0})
    assert main(["train-aux", "--config", str(aux_cfg), "--out", str(adir),
                 "--teacher-cache", str(tdir / "teacher_logits.sws")]) == 0
    aux = load_checkpoint(adir / "aux.sws")
    assert aux.plan is not None and aux.plan.stage_sizes == (1, 1)
    pack = load_learngene(adir / "learngene.sws")
    assert pack.plan.stage_sizes == (1, 1)
    assert pack.provenance["alpha"] == 0.9

    assert main(["init-des", "--pack", str(adir / "learngene.sws"), "--depth", "5",
                 "--out", str(ddir)]) == 0
    des = load_checkpoint(ddir / "descendant.sws")
    assert des.cfg.depth == 5 and des.plan is None
    assignment = (ddir / "assignment.csv").read_text()
    assert assignment.startswith("position,learngene_index")
    assert "descendant: depth=5" in capsys.readouterr().out


def test_identity_descendant_evaluates_like_aux(tmp_path):
    cfg = write_config(tmp_path)
    tdir, adir, ddir = tmp_path / "t", tmp_path / "a", tmp_path / "d"
    main(["train-teacher", "--config", str(cfg), "--out", str(tdir)])
    aux_cfg = write_config(tmp_path, "aux.json", train={"epochs": 1, "alpha": 0.9})
    main(["train-aux", "--config", str(aux_cfg), "--out", str(adir),
          "--teacher-cache", str(tdir / "teacher_logits.sws")])
    main(["init-des", "--pack", str(adir / "learngene.sws"), "--depth", "2", "--out", str(ddir)])

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", "--config", str(cfg), "--out", str(e1),
                 "--checkpoint", str(adir / "aux.sws")]) == 0
    assert main(["eval", "--config", str(cfg), "--out", str(e2),
                 "--checkpoint", str(ddir / "descendant.sws")]) == 0
    assert (e1 / "eval.csv").read_bytes() == (e2 / "eval.csv").read_bytes()


def test_finetune_descendant(tmp_path, capsys):
    cfg = write_config(tmp_path)
    tdir, adir, ddir, fdir = tmp_path / "t", tmp_path / "a", tmp_path / "d", tmp_path / "f"
    main(["train-teacher", "--config", str(cfg), "--out", str(tdir)])
    aux_cfg = write_config(tmp_path, "aux.json", train={"epochs": 1, "alpha": 0.9})
    main(["train-aux", "--config", str(aux_cfg), "--out", str(adir),
          "--teacher-cache", str(tdir / "teacher_logits.sws")])
    main(["init-des", "--pack", str(adir / "learngene.sws"), "--depth", "3", "--out", str(ddir)])

    # The aux config still says alpha=0.9; with no cache given, the tuner
    # must fall back to plain labels rather than fail.
    ft_cfg = write_config(tmp_path, "ft.json", train={"epochs": 1, "batch_size": 16, "seed": 5})
    del_train = json.loads(ft_cfg.read_text())
    del del_train["train"]["alpha"]
    ft_cfg.write_text(json.dumps(del_train))
    assert main(["finetune", "--config", str(ft_cfg), "--out", str(fdir),
                 "--checkpoint", str(ddir / "descendant.sws")]) == 0
    assert (fdir / "finetuned.sws").exists()
    assert "finetuned: loss=" in capsys.readouterr().out
    tuned = load_checkpoint(fdir / "finetuned.sws")
    assert tuned.cfg.depth == 3


def test_sweep_depth_csv(tmp_path):
    cfg = write_config(tmp_path)
    tdir, adir, sdir = tmp_path / "t", tmp_path / "a", tmp_path / "s"
    main(["train-teacher", "--config", str(cfg), "--out", str(tdir)])
    aux_cfg = write_config(tmp_path, "aux.json", train={"epochs": 1, "alpha": 0.9})
    main(["train-aux", "--config", str(aux_cfg), "--out", str(adir),
          "--teacher-cache", str(tdir / "teacher_logits.sws")])

    assert main(["sweep-depth", "--config", str(cfg), "--out", str(sdir),
                 "--pack", str(adir / "learngene.sws"), "--vanilla", str(tdir / "teacher.sws"),
                 "--depths", "4,2", "--scratch-epochs", "1"]) == 0
    lines = (sdir / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "depth,params,method,val_loss,top1"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[2]) for r in rows] == [
        ("2", "scratch"), ("2", "simple_lg"), ("2", "sws"),
        ("4", "scratch"), ("4", "simple_lg"), ("4", "sws"),
    ]
    # Identity depth: the sws row at depth 2 must match the aux's own eval.
    e = tmp_path / "e"
    main(["eval", "--config", str(cfg), "--out", str(e), "--checkpoint", str(adir / "aux.sws")])
    aux_loss = (e / "eval.csv").read_text().strip().split("\n")[1].split(",")[1]
    sws2 = [r for r in rows if r[0] == "2" and r[2] == "sws"][0]
    assert sws2[3] == aux_loss


def test_replay_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "r1", tmp_path / "r2"
    assert main(["train-teacher", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train-teacher", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "teacher.sws").read_bytes() == (b / "teacher.sws").read_bytes()
    assert (a / "teacher_logits.sws").read_bytes() == (b / "teacher_logits.sws").read_bytes()

    def stable_manifest(p):
        return [ln for ln in (p / "manifest.txt").read_text().splitlines()
                if not ln.startswith(("wallclock_seconds=", "argv="))]

    assert stable_manifest(a) == stable_manifest(b)


def test_manifest_records_the_argv_main_was_given(tmp_path, monkeypatch):
    pack, out = tmp_path / "g.sws", tmp_path / "d"
    _save_pack(pack)
    monkeypatch.setattr("sys.argv", ["harness.py", "--whatever"])
    argv = ["init-des", "--pack", str(pack), "--depth", "3", "--out", str(out)]
    assert main(argv) == 0
    assert f"argv={' '.join(argv)}" in (out / "manifest.txt").read_text().splitlines()


def test_manifest_argv_splits_back_into_the_arguments(tmp_path):
    pack, out = tmp_path / "it's a pack.sws", tmp_path / "out dir"
    _save_pack(pack)
    argv = ["init-des", "--pack", str(pack), "--depth", "3", "--out", str(out)]
    assert main(argv) == 0
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert shlex.split(next(ln for ln in lines if ln.startswith("argv="))[len("argv="):]) == argv


def test_seed_flag_changes_the_run(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "s1", tmp_path / "s2"
    main(["train-teacher", "--config", str(cfg), "--out", str(a), "--seed", "1"])
    main(["train-teacher", "--config", str(cfg), "--out", str(b), "--seed", "2"])
    assert (a / "teacher.sws").read_bytes() != (b / "teacher.sws").read_bytes()


def test_set_override_reaches_training(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    main(["train-teacher", "--config", str(cfg), "--out", str(out), "--set", "train.epochs=0"])
    _, rows = read_metrics(out / "metrics.csv")
    assert len(rows) == 1


# ---- exit codes -----------------------------------------------------------------


def write_plan_config(tmp_path, plan):
    """BASE with its plan section replaced, not merged into {"stages": 2}."""
    raw = json.loads(json.dumps(BASE))
    raw["plan"] = plan
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_exit_2_on_bad_config(tmp_path, capsys):
    cfg = write_plan_config(tmp_path, {"sizes": [1, 2]})
    assert main(["train-aux", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "plan sizes sum to 3, model depth is 2" in capsys.readouterr().err


def test_train_aux_takes_plan_sizes(tmp_path):
    out = tmp_path / "a"
    assert main(["train-aux", "--config", str(write_plan_config(tmp_path, {"sizes": [1, 1]})),
                 "--out", str(out)]) == 0
    assert load_checkpoint(out / "aux.sws").plan.stage_sizes == (1, 1)


def test_exit_2_when_aux_lacks_teacher(tmp_path):
    cfg = write_config(tmp_path, train={"epochs": 1, "alpha": 0.9})
    assert main(["train-aux", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_exit_2_on_bad_set_flag(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--set", "oops"]) == 2


def test_exit_3_on_missing_files(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(tmp_path / "nothing.sws")]) == 3
    assert main(["train-teacher", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "y")]) == 3


def test_exit_4_on_corrupt_artifact(tmp_path):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.sws"
    bad.write_bytes(b"not a container at all")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(bad)]) == 4


def test_exit_4_on_pack_without_cfg(tmp_path):
    pack = tmp_path / "g.sws"
    save_learngene(extract_learngene(build_aux(ModelConfig(**BASE["model"]), StagePlan((1, 1)), seed=0)), pack)
    arrays, meta = load(pack, "learngene")
    del meta["cfg"]
    save(pack, "learngene", arrays, meta)
    assert main(["init-des", "--pack", str(pack), "--depth", "3", "--out", str(tmp_path / "d")]) == 4


def test_exit_4_on_stale_cache(tmp_path):
    cfg = write_config(tmp_path)
    tdir = tmp_path / "t"
    main(["train-teacher", "--config", str(cfg), "--out", str(tdir)])
    other = write_config(tmp_path, "other.json",
                         data={"synthetic": {"n": 120, "classes": 3, "size": 8, "seed": 9},
                               "train_fraction": 0.8, "split_seed": 2},
                         train={"epochs": 1, "alpha": 0.9})
    assert main(["train-aux", "--config", str(other), "--out", str(tmp_path / "x"),
                 "--teacher-cache", str(tdir / "teacher_logits.sws")]) == 4


def test_exit_4_on_bad_idx_data(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 16)
    lab.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 8)
    raw = json.loads(json.dumps(BASE))
    raw["data"] = {"idx": {"images": str(img), "labels": str(lab)}, "train_fraction": 0.8}
    cfg = tmp_path / "idx.json"
    cfg.write_text(json.dumps(raw))
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4


def test_exit_2_on_malformed_synthetic_data(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"synthetic": {"classes": 3, "size": 8}})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'n'" in capsys.readouterr().err
    cfg = write_config(tmp_path, data={"synthetic": [120, 3, 8]})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2


def write_idx_config(tmp_path, idx):
    raw = json.loads(json.dumps(BASE))
    raw["data"] = {"idx": idx, "train_fraction": 0.8}
    cfg = tmp_path / "idx.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_exit_2_on_idx_data_without_labels(tmp_path, capsys):
    cfg = write_idx_config(tmp_path, {"images": str(tmp_path / "img.idx")})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'labels'" in capsys.readouterr().err


def test_exit_4_on_empty_idx_data(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(b"\x00\x00\x08\x03" + b"\x00\x00\x00\x00" + b"\x00\x00\x00\x08" * 2)
    lab.write_bytes(b"\x00\x00\x08\x01" + b"\x00\x00\x00\x00")
    cfg = write_idx_config(tmp_path, {"images": str(img), "labels": str(lab)})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exit_5_on_numeric_blowup(tmp_path):
    # A checkpoint crafted to overflow float32 inside attention: the norm
    # gain and qkv weights are both ~1e20, so their product is inf.
    mcfg = ModelConfig(**BASE["model"])
    model = build_model(mcfg, seed=0)
    for lp in model.layers:
        lp.ln1_g.data = np.full_like(lp.ln1_g.data, 1e20)
        lp.qkv_w.data = np.full_like(lp.qkv_w.data, 1e20)
    bad = tmp_path / "huge.sws"
    save_checkpoint(model, bad)
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(bad)]) == 5


def test_exit_2_on_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "x"
    cfg.write_bytes(b'{"model": \xff}')
    assert main(["train-teacher", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exit_5_message_names_the_problem(tmp_path, capsys):
    mcfg = ModelConfig(**BASE["model"])
    model = build_model(mcfg, seed=0)
    for lp in model.layers:
        lp.ln1_g.data = np.full_like(lp.ln1_g.data, 1e20)
        lp.qkv_w.data = np.full_like(lp.qkv_w.data, 1e20)
    bad = tmp_path / "huge.sws"
    save_checkpoint(model, bad)
    cfg = write_config(tmp_path)
    main(["eval", "--config", str(cfg), "--out", str(tmp_path / "x"), "--checkpoint", str(bad)])
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("plan, message", [
    pytest.param({"sizes": [1.5, 1.5]}, "stage sizes must be positive integers, got (1.5, 1.5)", id="float-sizes"),
    pytest.param({"sizes": [True, 1]}, "stage sizes must be positive integers, got (True, 1)", id="bool-size"),
    pytest.param({"sizes": [1.0, 1.0]}, "stage sizes must be positive integers, got (1.0, 1.0)",
                 id="integral-float-sizes"),
    pytest.param({"sizes": 2}, "stage sizes must be a list of positive integers, got 2", id="sizes-not-a-list"),
    pytest.param({"stages": 1.5}, "stage count must be a positive integer, got 1.5", id="float-stages"),
    pytest.param({"stages": True}, "stage count must be a positive integer, got True", id="bool-stages"),
    pytest.param({"stages": "two"}, "stage count must be a positive integer, got 'two'", id="string-stages"),
])
def test_exit_2_on_non_integer_plan(tmp_path, capsys, plan, message):
    cfg = write_plan_config(tmp_path, plan)
    assert main(["train-aux", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, plan", [
    pytest.param("learngene", [True, 1], id="pack-bool"),
    pytest.param("learngene", [1.0, 1.0], id="pack-float"),
    pytest.param("checkpoint", [True, 1], id="ckpt-bool"),
    pytest.param("checkpoint", [0.5, 1.5], id="ckpt-fraction"),
])
def test_exit_4_on_non_integer_header_plan(tmp_path, kind, plan):
    path = tmp_path / "a.sws"
    aux = build_aux(ModelConfig(**BASE["model"]), StagePlan((1, 1)), seed=0)
    if kind == "learngene":
        save_learngene(extract_learngene(aux), path)
        argv = ["init-des", "--pack", str(path), "--depth", "3", "--out", str(tmp_path / "d")]
    else:
        save_checkpoint(aux, path)
        argv = ["eval", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "e"),
                "--checkpoint", str(path)]
    arrays, meta = load(path, kind)
    save(path, kind, arrays, {**meta, "plan": plan})
    assert main(argv) == 4


@pytest.mark.parametrize("override", ["train.lr=-1", "train.lr=0", "train.lr=NaN", "train.weight_decay=-0.05",
                                      "train.eps_opt=0", "train.eps_opt=-1e-8",
                                      "train.batch_size=1.5", "train.epochs=1.5", "train.epochs=true",
                                      "train.eval_batch_size=2.0", "train.seed=1.0", "train.betas=0.9",
                                      "train.betas=[0.9]", "train.lr=fast", "train.tau_square_scaling=1",
                                      "train.grad_clip=big"])
def test_exit_2_on_out_of_range_train_config(tmp_path, capsys, override):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x"), "--set", override]) == 2
    assert override.split(".")[1].split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "model.depth=true", "model.width=16.0", "model.mlp_ratio=true",
    "data.synthetic.n=120.7", "data.synthetic.classes=3.9", "data.synthetic.seed=1.5",
    "data.train_fraction=null", "data.train_fraction=\"0.8\"", "data.split_seed=0.5",
])
def test_exit_2_on_non_integer_model_or_data_value(tmp_path, capsys, override):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x"), "--set", override]) == 2
    assert override.split(".")[1].split("=")[0] in capsys.readouterr().err


BIG = str(10**30)


@pytest.mark.parametrize("override, message", [
    pytest.param(f"model.depth={BIG}", "depth must be a positive integer no larger than", id="model-depth"),
    pytest.param(f"model.width={BIG}", "width must be a positive integer no larger than", id="model-width"),
    pytest.param(f"data.synthetic.n={BIG}", "data.synthetic.n must be a positive integer no larger than",
                 id="synthetic-n"),
    pytest.param(f"data.synthetic.classes={BIG}",
                 "data.synthetic.classes must be a positive integer no larger than", id="synthetic-classes"),
])
def test_exit_2_on_a_size_numpy_cannot_index(tmp_path, capsys, override, message):
    out = tmp_path / "x"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(out), "--set", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_a_descendant_depth_numpy_cannot_index(tmp_path, capsys):
    pack, out = tmp_path / "g.sws", tmp_path / "d"
    _save_pack(pack)
    assert main(["init-des", "--pack", str(pack), "--depth", BIG, "--out", str(out)]) == 2
    assert f"descendant depth must be an integer from 1 to {MAX_SIZE}, got {BIG}" in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_idx_paths_that_are_not_strings(tmp_path):
    cfg = write_idx_config(tmp_path, {"images": 3, "labels": 4})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_exit_2_when_finetune_lacks_teacher(tmp_path, capsys):
    ckpt = tmp_path / "m.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=0), ckpt)
    cfg = write_config(tmp_path, train={"alpha": 0.5})
    assert main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "x"), "--checkpoint", str(ckpt)]) == 2
    assert "alpha > 0" in capsys.readouterr().err


def _save_pack(path):
    save_learngene(extract_learngene(build_aux(ModelConfig(**BASE["model"]), StagePlan((1, 1)), seed=0)), path)
    return path


def test_exit_4_on_wrong_shaped_or_extra_tensor(tmp_path):
    ckpt = tmp_path / "m.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=0), ckpt)
    arrays, meta = load(ckpt, "checkpoint")
    argv = ["eval", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt)]
    save(ckpt, "checkpoint", {**arrays, "layer00.qkv_b": np.zeros(1, np.float32)}, meta)  # would broadcast
    assert main(argv) == 4
    save(ckpt, "checkpoint", {**arrays, "unused": np.zeros(1, np.float32)}, meta)
    assert main(argv) == 4


@pytest.mark.parametrize("arrays, meta", [
    pytest.param({"logits": np.zeros((96, 3), np.float32)}, {"rows": 96}, id="no-dataset-hash"),
    pytest.param({"logits": np.zeros(96, np.float32)}, {"dataset_hash": "0x1", "rows": 96}, id="logits-1d"),
])
def test_exit_4_on_malformed_logit_cache(tmp_path, arrays, meta):
    cache = tmp_path / "c.sws"
    save(cache, "logitcache", arrays, meta)
    cfg = write_config(tmp_path, train={"alpha": 0.5})
    assert main(["train-aux", "--config", str(cfg), "--out", str(tmp_path / "x"), "--teacher-cache", str(cache)]) == 4


def test_exit_4_on_header_that_is_a_list(tmp_path):
    ckpt = tmp_path / "m.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=0), ckpt)
    raw = ckpt.read_bytes()
    enc = b"[]" + b" " * 6
    ckpt.write_bytes(raw[:4] + (1).to_bytes(4, "little") + len(enc).to_bytes(8, "little") + enc)
    assert main(["eval", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(ckpt)]) == 4


def test_init_des_leaves_no_out_dir_when_the_pack_is_missing(tmp_path):
    out = tmp_path / "d"
    assert main(["init-des", "--pack", str(tmp_path / "none.sws"), "--depth", "3", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("error, code", [
    (IdxFormatError("x"), 4), (DataError("x"), 2), (CliError("x"), 2), (ValueError("x"), 2),
    (HeaderError("x"), 4), (StaleCacheError("x"), 4), (DivergenceError("x"), 5), (NumericError("x"), 5),
    (FileNotFoundError("x"), 3), (PermissionError("x"), 3), (KeyError("x"), 1),
])
def test_exit_code_table(tmp_path, monkeypatch, capsys, error, code):
    def fail(path):
        raise error

    monkeypatch.setattr(sws.cli, "load_learngene", fail)
    assert main(["init-des", "--pack", "p.sws", "--depth", "3", "--out", str(tmp_path / "d")]) == code
    err = capsys.readouterr().err
    assert err.startswith("unexpected error: KeyError: " if code == 1 else "error: ")


def test_expansion_flags_are_shared():
    parser = build_parser()
    for command in (["init-des", "--pack", "p", "--depth", "3", "--out", "o"],
                    ["sweep-depth", "--config", "c", "--pack", "p", "--vanilla", "v", "--depths", "3", "--out", "o"]):
        args = parser.parse_args(command)
        assert (args.strategy, args.order, args.des_seed) == (STRATEGIES[0], str(DEFAULT_ORDER), 0)
        for strategy in STRATEGIES:
            assert parser.parse_args(command + ["--strategy", strategy]).strategy == strategy
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--strategy", "bogus"])


def test_every_command_writes_its_manifest(tmp_path):
    cfg = write_config(tmp_path)
    t, a, d, f, e, s = (tmp_path / n for n in "tadfes")
    commands = {
        "train-teacher": (t, ["--config", str(cfg)]),
        "train-aux": (a, ["--config", str(write_config(tmp_path, "aux.json", train={"alpha": 0.9})),
                          "--teacher-cache", str(t / "teacher_logits.sws")]),
        "init-des": (d, ["--pack", str(a / "learngene.sws"), "--depth", "3"]),
        "finetune": (f, ["--config", str(cfg), "--checkpoint", str(d / "descendant.sws")]),
        "eval": (e, ["--config", str(cfg), "--checkpoint", str(f / "finetuned.sws")]),
        "sweep-depth": (s, ["--config", str(cfg), "--pack", str(a / "learngene.sws"),
                            "--vanilla", str(t / "teacher.sws"), "--depths", "2,3"]),
    }
    for command, (out, flags) in commands.items():
        assert main([command, *flags, "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[0] == f"command={command}"
        assert [ln.split("=")[0] for ln in lines[1:4]] == ["argv", "package_version", "config"]
        assert lines[-1].startswith("wallclock_seconds=")
        artifacts = [ln for ln in lines if ln.startswith("artifact.")]
        assert artifacts and all(ln.split("=")[0][len("artifact."):] in {p.name for p in out.iterdir()}
                                 for ln in artifacts)


def test_sweep_depth_honours_eval_batch_size(tmp_path, monkeypatch):
    pack, vanilla = tmp_path / "g.sws", tmp_path / "v.sws"
    _save_pack(pack)
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), vanilla)
    seen = []
    evaluate = sws.cli.evaluate

    def spy(model, data, batch_size=256):
        seen.append(batch_size)
        return evaluate(model, data, batch_size)

    monkeypatch.setattr(sws.cli, "evaluate", spy)
    monkeypatch.setattr(sws.train, "evaluate", spy)
    assert main(["sweep-depth", "--config", str(write_config(tmp_path, train={"eval_batch_size": 7})),
                 "--out", str(tmp_path / "s"), "--pack", str(pack), "--vanilla", str(vanilla),
                 "--depths", "2,3", "--scratch-epochs", "1"]) == 0
    # Per depth: the sws and simple_lg views, then the scratch run's rows 0 and 1.
    assert seen == [7] * 8


def test_sweep_depth_without_scratch_models_evaluates_owned_validation_rows(tmp_path, monkeypatch):
    pack, vanilla = tmp_path / "g.sws", tmp_path / "v.sws"
    _save_pack(pack)
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), vanilla)
    cfg = write_config(tmp_path)
    _, val = sws.cli.datasets_from(json.loads(cfg.read_text()))
    seen = []
    evaluate = sws.cli.evaluate

    def spy(model, data, batch_size=256):
        seen.append(data)
        return evaluate(model, data, batch_size)

    monkeypatch.setattr(sws.cli, "evaluate", spy)
    assert main(["sweep-depth", "--config", str(cfg), "--out", str(tmp_path / "s"), "--pack", str(pack),
                 "--vanilla", str(vanilla), "--depths", "2,3"]) == 0
    assert len(seen) == 4
    for data in seen:  # no view into the split's shared base, which holds the train rows too
        assert data.rows.base is None and data.labels.base is None
        assert np.array_equal(data.rows, val.rows) and np.array_equal(data.labels, val.labels)
        assert data.content_hash == val.content_hash


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sweep_depth_evaluates_views_with_the_bytes_of_owned_descendants(tmp_path, monkeypatch, strategy):
    pack_path, vanilla_path, out = tmp_path / "g.sws", tmp_path / "v.sws", tmp_path / "s"
    _save_pack(pack_path)
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), vanilla_path)
    cfg = write_config(tmp_path)
    pack, vanilla = load_learngene(pack_path), load_checkpoint(vanilla_path)
    _, val = sws.cli.datasets_from(json.loads(cfg.read_text()))
    lines = ["depth,params,method,val_loss,top1"]
    for depth in (2, 3, 5):
        spec = DescendantSpec(depth=depth, strategy=strategy, seed=4)
        owned = {"simple_lg": simple_lg_expand(vanilla, spec)[0], "sws": init_descendant(pack, spec)[0]}
        for method, model in owned.items():
            loss, top1 = evaluate(model, val)
            lines.append(f"{depth},{count_params(model)},{method},{loss:.6f},{top1:.6f}")

    def copies(*args):
        raise AssertionError("sweep-depth copied a descendant")
    monkeypatch.setattr(sws.cli, "init_descendant", copies)
    monkeypatch.setattr(sws.cli, "simple_lg_expand", copies)
    assert main(["sweep-depth", "--config", str(cfg), "--pack", str(pack_path), "--vanilla", str(vanilla_path),
                 "--depths", "5,2,3", "--strategy", strategy, "--des-seed", "4", "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == "".join(line + "\n" for line in lines).encode()


def test_sweep_depth_memory_does_not_grow_with_depth(tmp_path):
    cfg = ModelConfig(**{**BASE["model"], "depth": 4, "width": 128})
    pack, vanilla = tmp_path / "g.sws", tmp_path / "v.sws"
    save_learngene(extract_learngene(build_aux(cfg, StagePlan((2, 2)), seed=0)), pack)
    save_checkpoint(build_model(cfg, seed=1), vanilla)

    def sweep(depths):
        return main(["sweep-depth", "--config", str(write_config(tmp_path)), "--pack", str(pack),
                     "--vanilla", str(vanilla), "--depths", depths, "--out", str(tmp_path / depths.replace(",", "-"))])

    def traced_peak(depths):
        tracemalloc.start()
        try:
            assert sweep(depths) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert sweep("4") == 0  # warm-up: one-time set-up stays out of both peaks
    descendant = init_descendant(load_learngene(pack), DescendantSpec(depth=4))[0]
    descendant_bytes = sum(t.data.nbytes for _, t in descendant.named_tensors())
    grown = traced_peak("4,12") - traced_peak("4")
    assert grown < descendant_bytes, f"peak grew {grown} bytes; a depth-4 descendant holds {descendant_bytes}"


def _save_deep_pack(path, width=8):
    cfg = ModelConfig(**{**BASE["model"], "depth": 4, "width": width})
    save_learngene(extract_learngene(build_aux(cfg, StagePlan((2, 2)), seed=0)), path)
    return path


@pytest.mark.parametrize("classes", [None, 5])
@pytest.mark.parametrize("depth", [3, 4, 7])  # below, at and above the pack's depth of 4
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_init_des_writes_the_bytes_of_the_owned_descendant(tmp_path, capsys, strategy, depth, classes):
    pack, out, ref = _save_deep_pack(tmp_path / "g.sws"), tmp_path / "d", tmp_path / "ref"
    owned, report = init_descendant(load_learngene(pack), DescendantSpec(depth, strategy, seed=4, classes=classes))
    ref.mkdir()
    save_checkpoint(owned, ref / "descendant.sws", provenance={
        "command": "init-des", "pack": str(pack), "strategy": strategy, "order": str(DEFAULT_ORDER), "seed": 4})
    write_assignment_csv(report, ref / "assignment.csv")

    argv = ["init-des", "--pack", str(pack), "--depth", str(depth), "--strategy", strategy, "--des-seed", "4"]
    assert main([*argv, *(["--classes", str(classes)] if classes else []), "--out", str(out)]) == 0
    for name in ("descendant.sws", "assignment.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert capsys.readouterr().out == f"descendant: depth={depth} strategy={strategy} params={count_params(owned):,}\n"


def test_init_des_peak_holds_no_copy_of_the_descendant(tmp_path):
    pack = _save_deep_pack(tmp_path / "g.sws", width=64)

    def init_des(out):
        assert main(["init-des", "--pack", str(pack), "--depth", "16", "--out", str(tmp_path / out)]) == 0

    init_des("warm")  # one-time set-up stays out of the peak
    tracemalloc.start()
    try:
        init_des("d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The manifest hash reads the written file whole; a copy of the descendant would add as much again.
    bound = pack.stat().st_size + 1.5 * (tmp_path / "d" / "descendant.sws").stat().st_size
    assert peak < bound, f"init-des peaked at {peak} bytes, bound {bound:.0f}"


def _overflowing_checkpoint(path):
    # As in test_exit_5_on_numeric_blowup: gain x qkv weights overflow float32.
    model = build_model(ModelConfig(**BASE["model"]), seed=0)
    for lp in model.layers:
        lp.ln1_g.data = np.full_like(lp.ln1_g.data, 1e20)
        lp.qkv_w.data = np.full_like(lp.qkv_w.data, 1e20)
    save_checkpoint(model, path)
    return path


def _bad_idx_config(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    img.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 16)
    lab.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 8)
    return write_idx_config(tmp_path, {"images": str(img), "labels": str(lab)})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("argv, code", [
    (lambda p: ["eval", "--config", str(write_config(p)), "--checkpoint", str(p / "none.sws")], 3),
    (lambda p: ["finetune", "--config", str(write_config(p)), "--checkpoint", str(p / "none.sws")], 3),
    (lambda p: ["sweep-depth", "--config", str(write_config(p)), "--pack", str(p / "none.sws"),
                "--vanilla", str(p / "none.sws"), "--depths", "2,3"], 3),
    (lambda p: ["train-aux", "--config", str(write_config(p, train={"alpha": 0.5}))], 2),
    (lambda p: ["train-teacher", "--config", str(_bad_idx_config(p))], 4),
    (lambda p: ["eval", "--config", str(write_config(p)),
                "--checkpoint", str(_overflowing_checkpoint(p / "huge.sws"))], 5),
], ids=["eval-missing-checkpoint", "finetune-missing-checkpoint", "sweep-missing-pack",
        "aux-without-teacher", "teacher-bad-idx", "eval-overflow"])
def test_failed_command_leaves_no_out_dir(tmp_path, argv, code):
    out = tmp_path / "out"
    assert main([*argv(tmp_path), "--out", str(out)]) == code
    assert not out.exists()


def test_eval_needs_no_training_keys(tmp_path):
    ckpt, pack = tmp_path / "m.sws", tmp_path / "g.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    _save_pack(pack)
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"model": BASE["model"], "data": BASE["data"]}))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "eval.csv").read_text().startswith("split,loss,top1\nval,")
    assert main(["sweep-depth", "--config", str(cfg), "--pack", str(pack), "--vanilla", str(ckpt),
                 "--depths", "2", "--out", str(tmp_path / "s")]) == 0
    for bad in ("0", "2.0", "true"):
        out = tmp_path / f"bad{bad}"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out),
                     "--set", f"train.eval_batch_size={bad}"]) == 2
        assert not out.exists()


def test_eval_records_the_seed_flag(tmp_path):
    ckpt = tmp_path / "m.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    out = tmp_path / "e"
    assert main(["eval", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt),
                 "--seed", "9", "--out", str(out)]) == 0
    assert '"seed":9' in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("flags, filled", [([], None), (["--seed", "9"], {"seed": 9}),
                                           (["--set", "train.eval_batch_size=7"], {"eval_batch_size": 7})],
                         ids=["no-flag", "seed", "set"])
@pytest.mark.parametrize("train", [None, 5, []], ids=["null", "five", "list"])
def test_a_train_section_that_is_not_an_object(tmp_path, capsys, flags, filled, train):
    # A null section is empty, also to --seed and --set; any other non-object exits 2 naming it.
    ckpt, out = tmp_path / "m.sws", tmp_path / "e"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    argv = ["eval", "--config", str(write_config(tmp_path, train=train)), "--checkpoint", str(ckpt), *flags]
    assert main([*argv, "--out", str(out)]) == (0 if train is None else 2)
    if train is None:
        assert f'"train":{json.dumps(filled, separators=(",", ":"))}' in (out / "manifest.txt").read_text()
    else:
        assert "'train'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("warning_filter", ["error", "always"])
@pytest.mark.parametrize("argv", [
    lambda p: ["eval", "--config", str(write_config(p)), "--checkpoint", str(_overflowing_checkpoint(p / "huge.sws"))],
    lambda p: ["train-teacher", "--config", str(write_config(p)), "--set", "train.lr=1e30"],
], ids=["eval-overflow", "teacher-lr-1e30"])
def test_a_numeric_fault_exits_5_with_only_the_error_line(tmp_path, capsys, argv, warning_filter):
    # Under both filters: a warning neither turns into exit 1 nor reaches stderr.
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        assert main([*argv(tmp_path), "--out", str(out)]) == 5
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    lambda p: ["init-des", "--pack", str(_save_pack(p / "g.sws")), "--depth", "2", "--classes", str(2**62)],
    lambda p: ["train-teacher", "--config", str(write_config(p)), "--set", f"model.classes={2**62}"],
], ids=["init-des-classes", "set-model-classes"])
def test_exit_2_out_of_memory_on_a_head_past_numpy_index_range(tmp_path, capsys, argv):
    # width x 2**62 head weights: np.prod would wrap the count to 0.
    out = tmp_path / "x"
    assert main([*argv(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: a size in the config or its inputs is too large")
    assert "more than numpy can index" in err
    assert not out.exists()


@pytest.mark.parametrize("classes", [5, 2], ids=["more-classes-than-data", "fewer-classes-than-data"])
def test_eval_rejects_a_head_that_does_not_match_the_data(tmp_path, capsys, classes):
    pack, des, out = tmp_path / "g.sws", tmp_path / "d", tmp_path / "e"
    _save_pack(pack)
    assert main(["init-des", "--pack", str(pack), "--depth", "2", "--classes", str(classes), "--out", str(des)]) == 0
    assert main(["eval", "--config", str(write_config(tmp_path)), "--checkpoint", str(des / "descendant.sws"),
                 "--out", str(out)]) == 2
    assert f"model has {classes} classes, data has 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train-aux", "--config", "c.json", "--teacher-cache", "t.sws", "--teacher-checkpoint", "none.sws"],
    ["sweep-depth", "--config", "c.json", "--pack", "g.sws", "--vanilla", "v.sws", "--depths", "2",
     "--scratch-epochs", "-1"],
], ids=["aux-cache-and-checkpoint", "sweep-negative-scratch-epochs"])
def test_exit_2_on_conflicting_or_negative_flags(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        main([*argv, "--out", str(out)])
    assert e.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("classes", ["0", "-3"])
def test_exit_2_on_init_des_without_classes(tmp_path, capsys, classes):
    pack, out = tmp_path / "g.sws", tmp_path / "d"
    _save_pack(pack)
    assert main(["init-des", "--pack", str(pack), "--depth", "2", "--classes", classes, "--out", str(out)]) == 2
    assert f"classes must be a positive integer or None, got {classes}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depths, bad", [("2,,3", "''"), ("2.5", "'2.5'"), ("3,0", "'0'"), ("x", "'x'")])
def test_exit_2_on_a_bad_depths_entry(tmp_path, capsys, depths, bad):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        main(["sweep-depth", "--config", "c.json", "--pack", "g.sws", "--vanilla", "v.sws",
              "--depths", depths, "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument --depths" in err and f"got {bad}" in err
    assert not out.exists()


def test_depths_are_sorted_without_repeats():
    args = build_parser().parse_args(["sweep-depth", "--config", "c", "--pack", "p", "--vanilla", "v",
                                      "--depths", "8,4, 6,4", "--out", "o"])
    assert args.depths == [4, 6, 8]


def test_exit_4_on_a_nan_payload(tmp_path, capsys):
    ckpt, out = tmp_path / "m.sws", tmp_path / "e"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=0), ckpt)
    raw = bytearray(ckpt.read_bytes())
    hlen = int.from_bytes(raw[8:16], "little")
    raw[16 + hlen:16 + hlen + 4] = np.float32(np.nan).tobytes()  # first value of the first tensor
    ckpt.write_bytes(bytes(raw))
    assert main(["eval", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 4
    assert "non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_the_environment(tmp_path):
    import platform

    from sws.vit import openblas_threads

    out = tmp_path / "t"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    env = dict(line.split("=", 1) for line in lines[4:8])
    assert list(env) == ["python", "numpy", "blas", "blas_threads"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["blas"]
    threads = openblas_threads()
    assert env["blas_threads"] == (str(threads[0]()) if threads else "unknown")


def test_manifest_says_unknown_when_the_blas_lookup_fails(tmp_path, monkeypatch):
    import sws.vit as vit

    def cdll(path):
        raise OSError(f"{path}: cannot open shared object file")
    monkeypatch.setattr(vit.ctypes, "CDLL", cdll)
    vit.openblas_threads.cache_clear()
    try:
        out = tmp_path / "t"
        assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    finally:
        vit.openblas_threads.cache_clear()
    assert "blas_threads=unknown" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize("override, message", [
    ("plan.foo=1", "plan: unknown key 'foo'"),
    ("data.bogus=1", "data: unknown key 'bogus'"),
    ("data.synthetic.nn=5", "data.synthetic: unknown key 'nn'"),
    ("extra.x=1", "config: unknown key 'extra'"),
    ("plan.sizes=[1,1]", "plan takes 'stages' or 'sizes', not both"),
    ('data.idx={"images":"i.idx","labels":"l.idx"}', "needs 'synthetic' or 'idx', not both"),
])
def test_exit_2_on_an_unknown_config_key(tmp_path, capsys, override, message):
    out = tmp_path / "x"
    assert main(["train-aux", "--config", str(write_config(tmp_path)), "--out", str(out), "--set", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_an_unknown_idx_key_before_reading_the_files(tmp_path, capsys):
    cfg = write_idx_config(tmp_path, {"images": str(tmp_path / "none.idx"), "labels": str(tmp_path / "none.idx"),
                                      "format": "gz"})
    assert main(["train-teacher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "data.idx: unknown key 'format'" in capsys.readouterr().err


@pytest.mark.parametrize("good_file, fraction, message", [
    (False, "x", "bad magic 0x00000999"),
    (True, "x", "data.train_fraction must be a number"),
    (True, 1.5, "train_fraction must be in (0, 1), got 1.5"),
], ids=["bad-magic-before-bad-type", "bad-type", "out-of-range"])
def test_idx_data_exit_codes_keep_their_order(tmp_path, capsys, good_file, fraction, message):
    # The IDX files are checked before train_fraction's type, and its range after both.
    cfg = _bad_idx_config(tmp_path)
    if good_file:  # valid files on the same paths: four 8 x 8 images, labels 0, 1, 2, 0
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        img.write_bytes(b"\x00\x00\x08\x03" + (4).to_bytes(4, "big") + (8).to_bytes(4, "big") * 2 + bytes(256))
        lab.write_bytes(b"\x00\x00\x08\x01" + (4).to_bytes(4, "big") + bytes([0, 1, 2, 0]))
    out = tmp_path / "x"
    code = main(["train-teacher", "--config", str(cfg), "--out", str(out), "--set", f"data.train_fraction={fraction}"])
    assert code == (2 if good_file else 4)
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("train-teacher", []),
    ("train-aux", []),
    ("finetune", ["--checkpoint", "none.sws"]),
    ("eval", ["--checkpoint", "none.sws"]),
    ("sweep-depth", ["--pack", "none.sws", "--vanilla", "none.sws", "--depths", "2"]),
])
def test_every_config_command_rejects_an_unknown_section(tmp_path, command, flags):
    # The section check runs before any file is read: exit 2, not 3.
    out = tmp_path / "x"
    assert main([command, "--config", str(write_config(tmp_path)), *flags, "--out", str(out),
                 "--set", "extra.x=1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("overrides, error", [
    (["model.depth=5"], "--set model.depth=5 disagrees with the checkpoint's model"),
    (["model.depth=5", "model.width=64"], "--set model.depth=5, model.width=64 disagrees"),
    (["model.heads=1"], "--set model.heads=1 disagrees"),
    (["model.foo=1"], "unexpected keyword argument 'foo'"),
    (["model.depth=2.0"], "depth must be a positive integer"),
    (["model.depth=5", "model.depth=2"], None),  # the last flag wins, as in the config
    (["model.depth=2", "model.mlp_ratio=4"], None),
], ids=["depth", "depth-and-width", "heads", "unknown-key", "float-depth", "last-wins", "agreeing"])
def test_a_model_override_must_agree_with_the_checkpoint(tmp_path, capsys, command, overrides, error):
    ckpt, out = tmp_path / "m.sws", tmp_path / "o"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    argv = [command, "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt), "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == (0 if error is None else 2)
    assert out.exists() == (error is None)
    if error:
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("overrides, error", [
    (["model.depth=5"], "--set model.depth=5 disagrees with the learngene pack's model"),
    (["model.width=64"], "--set model.width=64 disagrees with the learngene pack's model"),
    (["model.depth=2", "model.width=8"], None),
], ids=["depth", "width", "agreeing"])
def test_a_model_override_must_agree_with_the_sweep_pack(tmp_path, capsys, overrides, error):
    pack, vanilla, out = tmp_path / "g.sws", tmp_path / "v.sws", tmp_path / "s"
    _save_pack(pack)
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), vanilla)
    argv = ["sweep-depth", "--config", str(write_config(tmp_path)), "--pack", str(pack), "--vanilla", str(vanilla),
            "--depths", "2,3", "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == (0 if error is None else 2)
    assert out.exists() == (error is None)
    if error:
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sweep-depth"])
def test_an_evaluating_command_checks_the_whole_train_section(tmp_path, capsys, command):
    ckpt, pack, out = tmp_path / "m.sws", tmp_path / "g.sws", tmp_path / "o"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    _save_pack(pack)
    flags = {"eval": ["--checkpoint", str(ckpt)],
             "sweep-depth": ["--pack", str(pack), "--vanilla", str(ckpt), "--depths", "2"]}[command]
    assert main([command, "--config", str(write_config(tmp_path)), *flags, "--out", str(out),
                 "--set", "train.lr=-1"]) == 2
    assert "lr must be > 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    pytest.param("train.grad_clip=NaN", "grad_clip must be finite and positive when set, got nan", id="grad-clip-nan"),
    pytest.param("train.grad_clip=Infinity", "grad_clip must be finite", id="grad-clip-inf"),
    pytest.param("train.tau=NaN", "tau must be finite and > 0, got nan", id="tau-nan"),
    pytest.param("train.tau=Infinity", "tau must be finite and > 0, got inf", id="tau-inf"),
    pytest.param("model.mlp_ratio=NaN", "mlp_ratio must be a finite number, got nan", id="mlp-ratio-nan"),
    pytest.param("model.mlp_ratio=Infinity", "mlp_ratio must be a finite number, got inf", id="mlp-ratio-inf"),
    pytest.param("model.mlp_ratio=1e308", f"mlp_ratio 1e+308 puts mlp_dim outside [1, {MAX_SIZE}]",
                 id="mlp-ratio-overflows"),
    pytest.param("model.mlp_ratio=1e30", f"mlp_ratio 1e+30 puts mlp_dim outside [1, {MAX_SIZE}]",
                 id="mlp-dim-above-max-size"),
])
def test_exit_2_on_a_non_finite_or_oversized_number(tmp_path, capsys, override, message):
    teacher, out = tmp_path / "t.sws", tmp_path / "x"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), teacher)
    assert main(["train-aux", "--config", str(write_config(tmp_path)), "--teacher-checkpoint", str(teacher),
                 "--set", "train.alpha=0.9", "--set", override, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("detail", ["Unable to allocate 128. TiB for an array", ""], ids=["numpy-detail", "no-detail"])
def test_exit_2_when_memory_runs_out(tmp_path, monkeypatch, capsys, detail):
    def build_model(cfg, seed):
        raise MemoryError(detail)

    monkeypatch.setattr(sws.cli, "build_model", build_model)
    out = tmp_path / "x"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: a size in the config or its inputs is too large")
    assert detail in err
    assert not out.exists()


def test_train_aux_from_a_teacher_checkpoint_writes_the_bytes_of_its_cache(tmp_path):
    tdir = tmp_path / "t"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(tdir)]) == 0
    aux_cfg = write_config(tmp_path, "aux.json", train={"epochs": 2, "alpha": 0.9, "tau": 2.0})
    written = {}
    for flag, artifact in (("--teacher-cache", "teacher_logits.sws"), ("--teacher-checkpoint", "teacher.sws")):
        out = tmp_path / flag
        assert main(["train-aux", "--config", str(aux_cfg), flag, str(tdir / artifact), "--out", str(out)]) == 0
        written[flag] = [(out / name).read_bytes() for name in ("aux.sws", "learngene.sws", "metrics.csv")]
    assert written["--teacher-checkpoint"] == written["--teacher-cache"]


@pytest.mark.parametrize("override, message", [
    pytest.param("train.lr=Infinity", "lr must be finite, got inf", id="lr-inf"),
    pytest.param("train.eps_opt=Infinity", "eps_opt must be finite, got inf", id="eps-opt-inf"),
    pytest.param("train.weight_decay=Infinity", "weight_decay must be finite, got inf", id="weight-decay-inf"),
    pytest.param("train.lr=1e999", "lr must be finite, got inf", id="lr-overflows"),
])
def test_exit_2_on_a_non_finite_optimizer_number(tmp_path, capsys, override, message):
    out = tmp_path / "x"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--set", override, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--teacher-cache", "--teacher-checkpoint"])
def test_exit_4_on_a_teacher_with_other_classes(tmp_path, capsys, flag):
    five = {"model": {"classes": 5}, "data": {"synthetic": {**BASE["data"]["synthetic"], "classes": 5}}}
    tdir, out = tmp_path / "t", tmp_path / "x"
    assert main(["train-teacher", "--config", str(write_config(tmp_path, "5.json", **five)), "--out", str(tdir)]) == 0
    teacher = tdir / ("teacher_logits.sws" if flag == "--teacher-cache" else "teacher.sws")
    if flag == "--teacher-cache":  # the hash and row count of the 3-class train split, with 5 columns
        cache = load_logit_cache(teacher)
        train_data, _ = sws.cli.datasets_from(json.loads(write_config(tmp_path).read_text()))
        save_logit_cache(type(cache)(logits=cache.logits, dataset_hash=train_data.content_hash), teacher)
    assert main(["train-aux", "--config", str(write_config(tmp_path)), "--set", "train.alpha=0.9",
                 flag, str(teacher), "--out", str(out)]) == 4
    kind = "cache" if flag == "--teacher-cache" else "model"
    assert f"teacher {kind} has 5 classes, data has 3" in capsys.readouterr().err
    assert not out.exists()


def _raw_config(tmp_path, cfg):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(cfg))
    return path


def _without(section):
    return {k: v for k, v in BASE.items() if k != section}


def _eval_argv(tmp_path, *flags):
    ckpt = tmp_path / "m.sws"
    save_checkpoint(build_model(ModelConfig(**BASE["model"]), seed=1), ckpt)
    return ["eval", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt), *flags]


@pytest.mark.parametrize("argv, section", [
    (lambda p: ["train-teacher", "--config", str(_raw_config(p, [1]))], "top level"),
    (lambda p: ["train-teacher", "--config", str(write_config(p)), "--set", "train.seed.x=1"],
     "'seed' is not a section"),
    (lambda p: _eval_argv(p, "--set", "model=5"), "--set model must be an object"),
    (lambda p: ["train-teacher", "--config", str(_raw_config(p, _without("model")))], "'model' section"),
    (lambda p: ["train-teacher", "--config", str(write_config(p)), "--set", "model.depthh=3"], "model section"),
    (lambda p: ["train-aux", "--config", str(_raw_config(p, _without("plan")))], "'plan' section"),
    (lambda p: ["train-aux", "--config", str(_raw_config(p, {**BASE, "plan": {}}))], "plan section"),
    (lambda p: ["train-teacher", "--config", str(write_config(p, train=5))], "'train' section"),
    (lambda p: ["train-teacher", "--config", str(write_config(p)), "--set", "train.lrr=1"], "train section"),
    (lambda p: ["train-teacher", "--config", str(_raw_config(p, _without("data")))], "'data' section"),
], ids=["top-level-list", "set-through-a-value", "set-model-scalar", "no-model", "unknown-model-key", "no-plan",
        "empty-plan", "train-scalar", "unknown-train-key", "no-data"])
def test_exit_2_names_the_section_of_a_misshapen_config(tmp_path, capsys, argv, section):
    out = tmp_path / "out"
    assert main([*argv(tmp_path), "--out", str(out)]) == 2
    assert section in capsys.readouterr().err
    assert not out.exists()


# Each value of the type-mutation probe that a key's rule rejects exits 2 with
# that rule's message and leaves no --out; a key is covered once it is declared.
PROBE_VALUES = [True, False, 1.5, 2.0, "x", None, [1], {}, float("nan"), float("inf"), -1, 0, 10 ** 30, -10 ** 30]
RULE_TABLES = [("model.", "", MODEL_RULES), ("train.", "", TRAIN_RULES), ("data.", "data.", _SPLIT_RULES),
               *((f"data.{kind}.", f"data.{kind}.", rules) for kind, rules in _SOURCE_RULES.items())]


def _first_failure(rule, value):
    return next((what for what, test in rule if not test(value)), None)


@pytest.mark.parametrize("key, name, value, what", [
    pytest.param(prefix + key, where + key, value, what, id=f"{prefix}{key}={json.dumps(value)}")
    for prefix, where, rules in RULE_TABLES for key, rule in rules.items() for value in PROBE_VALUES
    if (what := _first_failure(rule, value)) is not None])
def test_every_value_a_rule_rejects_exits_2_naming_its_key(tmp_path, capsys, key, name, value, what):
    cfg = (write_idx_config(tmp_path, {"images": "none.idx", "labels": "none.idx"}) if key.startswith("data.idx.")
           else write_config(tmp_path))
    out = tmp_path / "x"
    assert main(["train-teacher", "--config", str(cfg), "--out", str(out), "--set", f"{key}={json.dumps(value)}"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be {what}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("plan, message", [
    ({"stages": 0}, "plan.stages: the stage count must be a positive integer, got 0"),
    ({"stages": 3}, "plan.stages: cannot split 2 layers into 3 stages"),
    ({"sizes": "x"}, "plan.sizes: stage sizes must be a list of positive integers, got 'x'"),
    ({"sizes": [1, 0]}, "plan.sizes: stage sizes must be positive integers, got (1, 0)"),
], ids=["stages-zero", "stages-above-depth", "sizes-not-a-list", "sizes-zero"])
def test_a_plan_error_names_its_key(tmp_path, capsys, plan, message):
    out = tmp_path / "x"
    assert main(["train-aux", "--config", str(_raw_config(tmp_path, {**BASE, "plan": plan})), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_manifest_says_unknown_when_numpy_cannot_name_its_blas(tmp_path, monkeypatch):
    def show_config(mode=None):  # numpy < 1.26 takes no mode
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")
    monkeypatch.setattr(np, "show_config", show_config)
    out = tmp_path / "t"
    assert main(["train-teacher", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert "blas=unknown" in (out / "manifest.txt").read_text().splitlines()


def test_exit_5_names_the_epoch_and_step_of_a_nan_loss(tmp_path, monkeypatch, capsys):
    import sws.train

    loss_total, calls = sws.train.loss_total, []

    def nan_at_the_second_step(*args):
        calls.append(1)
        loss = loss_total(*args)
        return sws.tensor.scale(loss, float("nan")) if len(calls) == 2 else loss
    monkeypatch.setattr(sws.train, "loss_total", nan_at_the_second_step)
    out = tmp_path / "t"
    # 96 train samples in batches of 96: one step per epoch, so step 2 is epoch 2's first.
    argv = ["train-teacher", "--config", str(write_config(tmp_path, train={"epochs": 2, "batch_size": 96})),
            "--out", str(out)]
    assert main(argv) == 5
    assert "non-finite loss nan at epoch 2, step 2" in capsys.readouterr().err
    assert not out.exists()

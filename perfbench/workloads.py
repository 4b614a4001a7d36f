"""The benchmark's workloads: inputs made from a seed, the command, output checks.

Each workload is one ``sws`` subcommand run again and again by a single
client (a closed loop). Every data, init and split seed is derived from the
workload seed; the program receives only the generated config and files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np


def derived_seeds(seed: int, count: int = 8) -> list[int]:
    """Independent 31-bit seeds for data, split, init and so on."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % (1 << 31)]


def model_shapes(model: dict) -> dict:
    """The sizes the tracer needs to tell a matmul's block part from its shapes."""
    grid = model["image_size"] // model["patch_size"]
    return {"width": model["width"], "mlp_dim": 4 * model["width"], "num_patches": grid * grid}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def resave_identical(path: Path, kind: str, scratch: Path) -> bool:
    """Reload an artifact through the store loaders and save it again; same bytes?"""
    from sws import store
    copy = scratch / f"resave-{path.name}"
    if kind == "checkpoint":
        _, meta = store.load(path, "checkpoint")
        store.save_checkpoint(store.load_checkpoint(path), copy, provenance=meta["provenance"])
    elif kind == "learngene":
        store.save_learngene(store.load_learngene(path), copy)
    else:
        store.save_logit_cache(store.load_logit_cache(path), copy)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    return same


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite(header: list[str], row: list[str]) -> bool:
    """Every numeric cell parses to a finite float (empty cells and the method name aside)."""
    try:
        return all(math.isfinite(float(c)) for name, c in zip(header, row) if name != "method" and c)
    except ValueError:
        return False


class Workload:
    """One CLI command on inputs made from a seed."""

    name = ""
    model: dict = {}
    artifacts: tuple[tuple[str, str], ...] = ()  # (file name, store kind) of each .sws output
    csv_name = ""
    csv_header: list[str] = []
    step = "forward"  # what one step_ms sample times: "adamw", "forward" or "command"

    def __init__(self, seed: int):
        self.seed = seed
        self.seeds = derived_seeds(seed)

    @property
    def samples(self) -> int:
        """Samples one command processes, for samples_per_s."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def config(self, root: Path) -> dict:
        raise NotImplementedError

    def build_fixtures(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        (root / "config.json").write_text(json.dumps(self.config(root), indent=1))

    def argv(self, root: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def csv_rows(self) -> int:
        raise NotImplementedError

    def digests(self, out: Path) -> dict[str, str]:
        """Digests of every byte-reproducible output (the manifest holds wallclock)."""
        names = [n for n, _ in self.artifacts] + [self.csv_name]
        return {n: sha256(out / n) for n in names}

    def check(self, out: Path) -> list[str]:
        """Cheap checks run on every command's output."""
        header, rows = read_csv(out / self.csv_name)
        problems = []
        if header != self.csv_header:
            problems.append(f"{self.csv_name}: header {header}")
        if len(rows) != self.csv_rows():
            problems.append(f"{self.csv_name}: {len(rows)} rows, expected {self.csv_rows()}")
        if not all(len(r) == len(header) and _finite(header, r) for r in rows):
            problems.append(f"{self.csv_name}: non-finite or unparsable value")
        return problems

    def deep_check(self, root: Path, out: Path) -> list[str]:
        """Costlier checks; run once per distinct output, since outputs repeat byte for byte."""
        return [f"{name} does not re-save byte-identically"
                for name, kind in self.artifacts if not resave_identical(out / name, kind, root)]


class TiedTrain(Workload):
    name = "tied-train"
    epochs = 2
    n, image = 2000, 12
    model = {"image_size": 12, "patch_size": 4, "channels": 1, "depth": 8, "width": 32, "heads": 4,
             "classes": 10}
    teacher = {"depth": 6, "width": 48}
    artifacts = (("aux.sws", "checkpoint"), ("learngene.sws", "learngene"))
    csv_name = "metrics.csv"
    csv_header = ["epoch", "train_loss", "val_loss", "top1", "seconds"]
    step = "adamw"

    @property
    def train_size(self) -> int:
        return int(self.n * 0.8)

    @property
    def samples(self) -> int:
        return self.epochs * self.train_size

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.train_size // 64)

    def sizes(self) -> dict:
        return {"synthetic_n": self.n, "train": self.train_size, "val": self.n - self.train_size,
                "image": self.image, "epochs": self.epochs, "batch": 64, "model": self.model,
                "teacher": self.teacher}

    def config(self, root: Path) -> dict:
        data_seed, split_seed, train_seed = self.seeds[:3]
        return {"model": self.model, "plan": {"stages": 4},
                "train": {"epochs": self.epochs, "batch_size": 64, "lr": 2e-3, "alpha": 0.9, "tau": 1.0,
                          "grad_clip": 1.0, "seed": train_seed},
                "data": {"synthetic": {"n": self.n, "classes": 10, "size": self.image, "seed": data_seed},
                         "train_fraction": 0.8, "split_seed": split_seed}}

    def build_fixtures(self, root: Path) -> None:
        from dataclasses import replace

        from sws import build_model, cache_teacher_logits, cli
        from sws.store import save_logit_cache
        super().build_fixtures(root)
        cfg = self.config(root)
        train_data, _ = cli.datasets_from(cfg)
        teacher = build_model(replace(cli.model_config(cfg), **self.teacher), self.seeds[3])
        save_logit_cache(cache_teacher_logits(teacher, train_data), root / "teacher_logits.sws")

    def argv(self, root: Path, out: Path) -> list[str]:
        return ["train-aux", "--config", str(root / "config.json"),
                "--teacher-cache", str(root / "teacher_logits.sws"), "--out", str(out)]

    def csv_rows(self) -> int:
        return self.epochs + 1

    def deep_check(self, root: Path, out: Path) -> list[str]:
        from sws import cli, evaluate
        from sws.store import load_checkpoint
        problems = super().deep_check(root, out)
        _, val = cli.datasets_from(self.config(root))
        loss, _ = evaluate(load_checkpoint(out / "aux.sws"), val)
        reported = read_csv(out / self.csv_name)[1][-1][2]
        if f"{loss:.6f}" != reported:
            problems.append(f"final val_loss {reported} but the saved aux.sws evaluates to {loss:.6f}")
        return problems


class DepthSweep(Workload):
    name = "depth-sweep"
    depths = (4, 8, 12)
    n, image = 1280, 16
    model = {"image_size": 16, "patch_size": 4, "channels": 1, "depth": 8, "width": 128, "heads": 4,
             "classes": 10}
    csv_name = "sweep.csv"
    csv_header = ["depth", "params", "method", "val_loss", "top1"]

    @property
    def val_size(self) -> int:
        return self.n - int(self.n * 0.8)

    @property
    def samples(self) -> int:
        return len(self.depths) * 2 * self.val_size

    def sizes(self) -> dict:
        return {"synthetic_n": self.n, "val": self.val_size, "image": self.image, "depths": list(self.depths),
                "methods": ["sws", "simple_lg"], "eval_batch": 256, "model": self.model,
                "plan_stages": 4, "vanilla_depth": 4}

    def config(self, root: Path) -> dict:
        data_seed, split_seed, train_seed = self.seeds[:3]
        return {"model": self.model, "plan": {"stages": 4},
                "train": {"epochs": 1, "batch_size": 64, "seed": train_seed},
                "data": {"synthetic": {"n": self.n, "classes": 10, "size": self.image, "seed": data_seed},
                         "train_fraction": 0.8, "split_seed": split_seed}}

    def build_fixtures(self, root: Path) -> None:
        from dataclasses import replace

        from sws import balanced_plan, build_aux, build_model, extract_learngene
        from sws.store import save_checkpoint, save_learngene
        from sws.vit import ModelConfig
        super().build_fixtures(root)
        cfg = ModelConfig(**self.model)
        aux = build_aux(cfg, balanced_plan(cfg.depth, 4), self.seeds[4])
        save_learngene(extract_learngene(aux, provenance={"seed": self.seeds[4]}), root / "learngene.sws")
        save_checkpoint(build_model(replace(cfg, depth=4), self.seeds[5]), root / "vanilla.sws")

    def argv(self, root: Path, out: Path) -> list[str]:
        return ["sweep-depth", "--config", str(root / "config.json"), "--pack", str(root / "learngene.sws"),
                "--vanilla", str(root / "vanilla.sws"), "--depths", ",".join(map(str, self.depths)),
                "--out", str(out)]

    def csv_rows(self) -> int:
        return 2 * len(self.depths)

    def check(self, out: Path) -> list[str]:
        problems = super().check(out)
        _, rows = read_csv(out / self.csv_name)
        seen = sorted((int(r[0]), r[2]) for r in rows)
        want = sorted((d, m) for d in self.depths for m in ("sws", "simple_lg"))
        if seen != want:
            problems.append(f"{self.csv_name}: rows cover {seen}, expected {want}")
        return problems


class IdxIngest(Workload):
    name = "idx-ingest"
    n, image = 60000, 12
    model = {"image_size": 12, "patch_size": 4, "channels": 1, "depth": 1, "width": 8, "heads": 1,
             "classes": 10}
    artifacts = (("teacher.sws", "checkpoint"), ("teacher_logits.sws", "logitcache"))
    csv_name = "metrics.csv"
    csv_header = ["epoch", "train_loss", "val_loss", "top1", "seconds"]
    # A tiny model's ~2 ms forward batches flip between the host's fast and slow
    # phases, which leaves their median unstable; the ingest itself is the unit.
    step = "command"

    @property
    def train_size(self) -> int:
        return int(self.n * 0.8)

    @property
    def samples(self) -> int:
        return self.n

    def sizes(self) -> dict:
        return {"idx_images": self.n, "image": self.image, "train": self.train_size,
                "val": self.n - self.train_size, "model": self.model}

    def config(self, root: Path) -> dict:
        _, split_seed, train_seed = self.seeds[:3]
        return {"model": self.model,
                "train": {"epochs": 1, "batch_size": 64, "seed": train_seed},
                "data": {"idx": {"images": str(root / "images.idx"), "labels": str(root / "labels.idx")},
                         "train_fraction": 0.8, "split_seed": split_seed}}

    def build_fixtures(self, root: Path) -> None:
        super().build_fixtures(root)
        rng = np.random.default_rng(self.seeds[6])
        images = rng.integers(0, 256, size=(self.n, self.image, self.image), dtype=np.uint8)
        labels = rng.permutation(np.arange(self.n) % 10).astype(np.uint8)  # every class present
        with open(root / "images.idx", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, self.n, self.image, self.image))
            fh.write(images.tobytes())
        with open(root / "labels.idx", "wb") as fh:
            fh.write(struct.pack(">II", 0x801, self.n))
            fh.write(labels.tobytes())

    def argv(self, root: Path, out: Path) -> list[str]:
        return ["train-teacher", "--config", str(root / "config.json"), "--set", "train.epochs=0",
                "--out", str(out)]

    def csv_rows(self) -> int:
        return 1

    def deep_check(self, root: Path, out: Path) -> list[str]:
        from sws import cli
        from sws.store import load_logit_cache
        from sws.train import StaleCacheError
        problems = super().deep_check(root, out)
        cache = load_logit_cache(out / "teacher_logits.sws")
        train_data, _ = cli.datasets_from(self.config(root))
        if cache.logits.shape != (len(train_data), self.model["classes"]):
            problems.append(f"logit cache shape {cache.logits.shape} for {len(train_data)} train samples")
        try:
            cache.check(train_data)
        except StaleCacheError as e:
            problems.append(f"logit cache fails LogitCache.check: {e}")
        return problems


WORKLOADS = {w.name: w for w in (TiedTrain, DepthSweep, IdxIngest)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

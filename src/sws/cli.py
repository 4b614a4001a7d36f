"""Command-line harness: train, expand, fine-tune, evaluate, sweep.

Every run takes a JSON config plus optional flag overrides, writes its
artifacts under --out, and drops a manifest.txt recording the resolved
config, seeds, and an FNV-1a hash of each artifact. --out is created only
after the command's work has succeeded, so a bad input, a missing file or a
divergence leaves no directory and no partial artifacts behind. Identical
config and seed replay to identical artifacts (checkpoints bitwise, CSVs
bytewise); the manifest's wallclock lines are the one place times appear.

Exit codes: 0 success, 2 config or validation problem, 3 file I/O problem,
4 malformed or mismatched artifact, 5 numeric divergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__
from .data import Dataset, IdxFormatError, fnv1a64, load_idx, make_synthetic, split
from .expand import (DEFAULT_ORDER, STRATEGIES, DescendantSpec, InitOrder, init_descendant, simple_lg_expand,
                     write_assignment_csv)
from .sharing import balanced_plan, build_aux, custom_plan, extract_learngene
from .store import (StoreError, load_checkpoint, load_learngene, load_logit_cache, save_checkpoint,
                    save_learngene, save_logit_cache)
from .tensor import NumericError
from .train import (DivergenceError, StaleCacheError, TrainConfig, cache_teacher_logits, evaluate,
                    train_model)
from .vit import ModelConfig, build_model, count_params, is_int, is_real

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_DIVERGED = 5

# First match wins: IdxFormatError is a DataError, hence a ValueError.
_EXIT_CODES = (
    (IdxFormatError, EXIT_FORMAT),
    (ValueError, EXIT_CONFIG),
    ((StoreError, StaleCacheError), EXIT_FORMAT),
    ((DivergenceError, NumericError), EXIT_DIVERGED),
    (OSError, EXIT_IO),
)

_EPILOG = """exit codes:
  0  success
  2  config or validation problem (bad flag, bad value, inconsistent sections)
  3  file I/O problem (missing path, unreadable file)
  4  malformed or mismatched artifact (bad header/meta, tensors not matching cfg, stale cache, bad IDX)
  5  numeric divergence during training
  1  unexpected failure
"""


class CliError(ValueError):
    """Bad invocation or config content."""


# ---- config plumbing -----------------------------------------------------------


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise CliError(f"--set needs section.key=value, got {text!r}")
    key, raw = text.split("=", 1)
    path = key.strip().split(".")
    if not all(path):
        raise CliError(f"--set key {key!r} is malformed")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return path, value


def load_config(path, set_flags: list[str] | None = None, seed: int | None = None) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: top level must be an object")
    for flag in set_flags or []:
        node_path, value = _parse_override(flag)
        node = cfg
        for part in node_path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"--set {flag!r}: {part!r} is not a section")
        node[node_path[-1]] = value
    if seed is not None:
        cfg.setdefault("train", {})["seed"] = seed
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    section = cfg.get("model")
    if not isinstance(section, dict):
        raise CliError("config needs a 'model' section")
    try:
        return ModelConfig(**section)
    except TypeError as e:
        raise CliError(f"model section: {e}") from None


def plan_from(cfg: dict, depth: int):
    section = cfg.get("plan")
    if not isinstance(section, dict):
        raise CliError("config needs a 'plan' section ({'stages': M} or {'sizes': [...]})")
    if "sizes" in section:
        plan = custom_plan(section["sizes"])
        if plan.total_layers != depth:
            raise CliError(f"plan sizes sum to {plan.total_layers}, model depth is {depth}")
        return plan
    if "stages" in section:
        return balanced_plan(depth, section["stages"])
    raise CliError("plan section needs 'stages' or 'sizes'")


def _train_section(cfg: dict) -> dict:
    section = cfg.get("train") or {}
    if not isinstance(section, dict):
        raise CliError("the 'train' section must be an object")
    return section


def train_config(cfg: dict, **forced) -> TrainConfig:
    try:
        return TrainConfig(**{**_train_section(cfg), **forced})
    except TypeError as e:
        raise CliError(f"train section: {e}") from None


_DATA_KEYS = {"synthetic": ("n", "classes", "size"), "idx": ("images", "labels")}


def datasets_from(cfg: dict) -> tuple[Dataset, Dataset]:
    section = cfg.get("data")
    if not isinstance(section, dict):
        raise CliError("config needs a 'data' section")
    kind = next((k for k in _DATA_KEYS if k in section), None)
    if kind is None:
        raise CliError("data section needs 'synthetic' or 'idx'")
    s = section[kind]
    if not isinstance(s, dict):
        raise CliError(f"data.{kind} must be an object")
    missing = [k for k in _DATA_KEYS[kind] if k not in s]
    if missing:
        raise CliError(f"data.{kind} needs {', '.join(map(repr, missing))}")
    if kind == "synthetic":
        n, classes, size, seed = s["n"], s["classes"], s["size"], s.get("seed", 0)
        if not (is_int(n, 1) and is_int(classes, 1) and is_int(size, 1) and is_int(seed)):
            raise CliError(f"data.synthetic needs positive integers n, classes, size and an integer seed, got {s!r}")
        full = make_synthetic(n, classes, size, seed)
    elif not all(isinstance(s[k], str) for k in _DATA_KEYS[kind]):
        raise CliError(f"data.idx images and labels must be paths, got {s!r}")
    else:
        full = load_idx(s["images"], s["labels"])
    fraction, split_seed = section.get("train_fraction", 0.8), section.get("split_seed", 0)
    if not (is_real(fraction) and is_int(split_seed)):
        raise CliError(f"data.train_fraction must be a number and data.split_seed an integer, "
                       f"got {fraction!r} and {split_seed!r}")
    return split(full, fraction, split_seed)


def eval_batch_size(cfg: dict) -> int:
    """train.eval_batch_size, the one train key evaluation reads."""
    value = _train_section(cfg).get("eval_batch_size", TrainConfig.eval_batch_size)
    if not is_int(value, 1):
        raise CliError(f"train.eval_batch_size must be an integer >= 1, got {value!r}")
    return value


# ---- run directory helpers --------------------------------------------------------


def _write_manifest(outdir: Path, command: str, resolved: dict, artifacts: list[str],
                    extra: dict, started: float) -> None:
    lines = [
        f"command={command}",
        f"argv={' '.join(sys.argv[1:])}",
        f"package_version={__version__}",
        f"config={json.dumps(resolved, sort_keys=True, separators=(',', ':'))}",
    ]
    for k, v in extra.items():
        lines.append(f"{k}={v}")
    for name in artifacts:
        lines.append(f"artifact.{name}={fnv1a64((outdir / name).read_bytes()):#018x}")
    lines.append(f"wallclock_seconds={time.perf_counter() - started:.3f}")
    _write_lines(lines, outdir / "manifest.txt")


def _write_lines(lines: list[str], path: Path) -> None:
    path.write_text("".join(line + "\n" for line in lines), newline="\n")


def _eval_line(tag: str, loss: float, top1: float) -> str:
    return f"{tag}: loss={loss:.6f} top1={top1:.6f}"


# ---- commands -----------------------------------------------------------------------
#
# A command never touches --out: it does its work, prints its line and returns
# (resolved config, {artifact name: writer(path)}, extra manifest lines). main
# creates --out only after that, so a failed run leaves no directory behind.

Run = tuple[dict, dict, dict]


def cmd_train_teacher(args) -> Run:
    cfg = load_config(args.config, args.set, args.seed)
    mcfg = model_config(cfg)
    tcfg = train_config(cfg, alpha=0.0)  # the teacher trains on labels alone
    train_data, val_data = datasets_from(cfg)
    model = build_model(mcfg, tcfg.seed)
    metrics = train_model(model, train_data, val_data, tcfg)
    cache = cache_teacher_logits(model, train_data)
    print(_eval_line("teacher", metrics.final.val_loss, metrics.final.top1))
    provenance = {"command": "train-teacher", "seed": tcfg.seed}
    return cfg, {"teacher.sws": partial(save_checkpoint, model, provenance=provenance),
                 "teacher_logits.sws": partial(save_logit_cache, cache), "metrics.csv": metrics.write_csv}, {}


def cmd_train_aux(args) -> Run:
    cfg = load_config(args.config, args.set, args.seed)
    mcfg = model_config(cfg)
    tcfg = train_config(cfg)
    plan = plan_from(cfg, mcfg.depth)
    train_data, val_data = datasets_from(cfg)

    teacher = None
    if args.teacher_cache:
        teacher = load_logit_cache(args.teacher_cache)
    elif args.teacher_checkpoint:
        teacher = cache_teacher_logits(load_checkpoint(args.teacher_checkpoint), train_data)

    aux = build_aux(mcfg, plan, tcfg.seed)
    metrics = train_model(aux, train_data, val_data, tcfg, teacher)
    pack = extract_learngene(aux, provenance={"epochs": tcfg.epochs, "seed": tcfg.seed,
                                              "alpha": tcfg.alpha, "tau": tcfg.tau})
    print(_eval_line("aux", metrics.final.val_loss, metrics.final.top1))
    provenance = {"command": "train-aux", "seed": tcfg.seed}
    return cfg, {"aux.sws": partial(save_checkpoint, aux, provenance=provenance),
                 "learngene.sws": partial(save_learngene, pack), "metrics.csv": metrics.write_csv}, {}


def cmd_init_des(args) -> Run:
    pack = load_learngene(args.pack)
    spec = DescendantSpec(depth=args.depth, strategy=args.strategy,
                          order=InitOrder.parse(args.order), seed=args.des_seed,
                          classes=args.classes)
    model, report = init_descendant(pack, spec)
    print(f"descendant: depth={args.depth} strategy={spec.strategy} params={count_params(model):,}")
    provenance = {"command": "init-des", "pack": str(args.pack), "strategy": spec.strategy,
                  "order": str(spec.order), "seed": spec.seed}
    resolved = {"pack": str(args.pack), "depth": args.depth, "strategy": spec.strategy,
                "order": str(spec.order), "seed": spec.seed}
    return resolved, {"descendant.sws": partial(save_checkpoint, model, provenance=provenance),
                      "assignment.csv": partial(write_assignment_csv, report)}, {}


def cmd_finetune(args) -> Run:
    cfg = load_config(args.config, args.set, args.seed)
    model = load_checkpoint(args.checkpoint)
    train_data, val_data = datasets_from(cfg)
    forced = {}
    if not args.teacher_cache and "alpha" not in _train_section(cfg):
        forced["alpha"] = 0.0  # descendants tune on labels unless asked otherwise
    tcfg = train_config(cfg, **forced)
    teacher = load_logit_cache(args.teacher_cache) if args.teacher_cache else None
    metrics = train_model(model, train_data, val_data, tcfg, teacher)
    print(_eval_line("finetuned", metrics.final.val_loss, metrics.final.top1))
    provenance = {"command": "finetune", "seed": tcfg.seed, "from": str(args.checkpoint)}
    return cfg, {"finetuned.sws": partial(save_checkpoint, model, provenance=provenance),
                 "metrics.csv": metrics.write_csv}, {}


def cmd_eval(args) -> Run:
    cfg = load_config(args.config, args.set, args.seed)
    model = load_checkpoint(args.checkpoint)
    train_data, val_data = datasets_from(cfg)
    data = {"train": train_data, "val": val_data}[args.split]
    loss, top1 = evaluate(model, data, eval_batch_size(cfg))
    print(_eval_line("eval", loss, top1))
    lines = ["split,loss,top1", f"{args.split},{loss:.6f},{top1:.6f}"]
    return cfg, {"eval.csv": partial(_write_lines, lines)}, {"checkpoint": str(args.checkpoint), "split": args.split}


def cmd_sweep_depth(args) -> Run:
    cfg = load_config(args.config, args.set, args.seed)
    depths = sorted({int(d) for d in args.depths.split(",")})
    pack = load_learngene(args.pack)
    vanilla = load_checkpoint(args.vanilla)
    train_data, val_data = datasets_from(cfg)
    order = InitOrder.parse(args.order)
    batch_size = eval_batch_size(cfg)
    tcfg = train_config(cfg, alpha=0.0, epochs=args.scratch_epochs) if args.scratch_epochs > 0 else None

    rows = []
    for depth in depths:
        spec = DescendantSpec(depth=depth, strategy=args.strategy, order=order, seed=args.des_seed)
        des, _ = init_descendant(pack, spec)
        loss, top1 = evaluate(des, val_data, batch_size)
        rows.append((depth, count_params(des), "sws", loss, top1))

        simple, _ = simple_lg_expand(vanilla, spec)
        loss, top1 = evaluate(simple, val_data, batch_size)
        rows.append((depth, count_params(simple), "simple_lg", loss, top1))

        if tcfg is not None:
            scratch_cfg = replace(tcfg, seed=tcfg.seed + depth)
            scratch = build_model(replace(pack.cfg, depth=depth), scratch_cfg.seed)
            train_model(scratch, train_data, val_data, scratch_cfg)
            loss, top1 = evaluate(scratch, val_data, batch_size)
            rows.append((depth, count_params(scratch), "scratch", loss, top1))

    rows.sort(key=lambda r: (r[0], r[2]))
    lines = ["depth,params,method,val_loss,top1"]
    for depth, params, method, loss, top1 in rows:
        print(f"depth={depth} method={method} params={params} val_loss={loss:.6f} top1={top1:.6f}")
        lines.append(f"{depth},{params},{method},{loss:.6f},{top1:.6f}")
    return cfg, {"sweep.csv": partial(_write_lines, lines)}, {"pack": str(args.pack), "vanilla": str(args.vanilla),
                                                             "depths": ",".join(map(str, depths))}


# ---- argument parsing ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value (JSON literal or bare string); repeatable")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", required=True, help="output directory for artifacts")


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _add_expansion(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", default=DescendantSpec.strategy, choices=STRATEGIES)
    p.add_argument("--order", default=str(DEFAULT_ORDER), help="group priority, e.g. front-mid-last")
    p.add_argument("--des-seed", type=int, default=0, help="seed for random strategy / head re-init")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sws",
        description="Stage-wise weight sharing: tied training, learngene extraction, depth expansion.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"sws {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train an untied teacher on labels, cache its logits")
    _add_common(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("train-aux", help="train the stage-tied auxiliary model, extract the learngene pack")
    _add_common(p)
    teacher = p.add_mutually_exclusive_group()
    teacher.add_argument("--teacher-cache", default=None, help="logit cache artifact for distillation")
    teacher.add_argument("--teacher-checkpoint", default=None, help="teacher checkpoint (logits cached on the fly)")
    p.set_defaults(fn=cmd_train_aux)

    p = sub.add_parser("init-des", help="expand a learngene pack into a descendant checkpoint")
    _add_common(p, config=False)
    p.add_argument("--pack", required=True, help="learngene pack artifact")
    p.add_argument("--depth", type=int, required=True, help="descendant depth")
    _add_expansion(p)
    p.add_argument("--classes", type=int, default=None, help="descendant class count (default: pack's)")
    p.set_defaults(fn=cmd_init_des)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint (labels only unless a cache is given)")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--teacher-cache", default=None)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the config's data")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep-depth", help="no-tune evaluation of expansions across depths")
    _add_common(p)
    p.add_argument("--pack", required=True)
    p.add_argument("--vanilla", required=True, help="plain checkpoint for the baseline expansion")
    p.add_argument("--depths", required=True, help="comma-separated depths, e.g. 5,6,7,8")
    _add_expansion(p)
    p.add_argument("--scratch-epochs", type=_non_negative, default=0,
                   help="also train a scratch model per depth for this many epochs")
    p.set_defaults(fn=cmd_sweep_depth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        resolved, writers, extra = args.fn(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            write(out / name)
        _write_manifest(out, args.command, resolved, list(writers), extra, started)
    except Exception as e:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(e, kinds)), EXIT_UNEXPECTED)
        prefix = "error" if code != EXIT_UNEXPECTED else f"unexpected error: {type(e).__name__}"
        print(f"{prefix}: {e}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

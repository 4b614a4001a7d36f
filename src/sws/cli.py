"""Command-line harness: train, expand, fine-tune, evaluate, sweep.

Every run takes a JSON config plus optional flag overrides, writes its
artifacts under --out, and drops a manifest.txt recording the resolved
config, seeds, and an FNV-1a hash of each artifact. --out is created only
after the command's work has succeeded, so a bad input, a missing file or a
divergence leaves no directory and no partial artifacts behind. Identical
config and seed replay to identical artifacts (checkpoints bitwise, CSVs
bytewise); the manifest's wallclock lines are the one place times appear.

Exit codes: 0 success, 2 config or validation problem (a size too large for
memory included), 3 file I/O problem, 4 malformed or mismatched artifact,
5 numeric divergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import platform
import shlex
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Collection

import numpy as np

from . import __version__
from .data import Dataset, IdxFormatError, check_idx, fnv1a64, make_synthetic, split
from .data import load_idx  # noqa: F401 -- perfbench/tracer.py patches sws.cli.load_idx
from .expand import (DEFAULT_ORDER, STRATEGIES, DescendantSpec, InitOrder, expansion, pack_from_vanilla,
                     write_assignment_csv)
from .expand import init_descendant, simple_lg_expand  # noqa: F401 -- perfbench/tracer.py patches both in sws.cli
from .sharing import PlanError, balanced_plan, build_aux, custom_plan, extract_learngene
from .store import (StoreError, load_checkpoint, load_learngene, load_logit_cache, save_checkpoint,
                    save_learngene, save_logit_cache)
from .tensor import NumericError
from .train import (DivergenceError, StaleCacheError, TrainConfig, cache_teacher_logits, evaluate,
                    train_model)
from .vit import INT, NUMBER, SIZE, ModelConfig, build_model, check, count_params, openblas_threads

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_DIVERGED = 5

# First match wins: IdxFormatError is a DataError, hence a ValueError. A
# MemoryError comes from sizes that numpy can index but memory cannot hold.
_EXIT_CODES = (
    (IdxFormatError, EXIT_FORMAT),
    ((ValueError, MemoryError), EXIT_CONFIG),
    ((StoreError, StaleCacheError), EXIT_FORMAT),
    ((DivergenceError, NumericError), EXIT_DIVERGED),
    (OSError, EXIT_IO),
)

_EPILOG = """exit codes:
  0  success
  2  config or validation problem (bad flag, bad value, inconsistent sections,
     sizes too large for memory)
  3  file I/O problem (missing path, unreadable file)
  4  malformed or mismatched artifact (bad header/meta, tensors not matching cfg, stale cache or
     teacher class count, bad IDX)
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
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise CliError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: top level must be an object")
    seed_flag = [] if seed is None else [f"train.seed={seed}"]  # --seed N is --set train.seed=N, applied last
    return _apply_overrides(cfg, [*(set_flags or []), *seed_flag])


def _apply_overrides(cfg: dict, set_flags: list[str]) -> dict:
    for flag in set_flags:
        node_path, value = _parse_override(flag)
        node = cfg
        for part in node_path[:-1]:
            if node.get(part) is None:  # an absent or null section is empty
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise CliError(f"--set {flag!r}: {part!r} is not a section")
        node[node_path[-1]] = value
    return cfg


# The keys of the sections that no dataclass checks, and the rules of their
# values; an unknown key exits 2 rather than being silently dropped. Every data
# source key is required except data.synthetic.seed.
_SECTIONS = ("model", "plan", "train", "data")
_PLAN_KEYS = ("stages", "sizes")
_PATH = ("a path", lambda v: isinstance(v, str))
_SOURCE_RULES = {"synthetic": {"n": (SIZE,), "classes": (SIZE,), "size": (SIZE,), "seed": (INT,)},
                 "idx": {"images": (_PATH,), "labels": (_PATH,)}}
_SPLIT_RULES = {"train_fraction": (NUMBER,), "split_seed": (INT,)}
_DATA_KEYS = (*_SOURCE_RULES, *_SPLIT_RULES)


def _check_keys(where: str, section: dict, allowed: Collection[str]) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise CliError(f"{where}: unknown key {', '.join(map(repr, unknown))} (allowed: {', '.join(allowed)})")


def _section(parent: dict, name: str, where: str = "") -> dict:
    """``parent[name]``, which must be an object."""
    section = parent.get(name)
    if not isinstance(section, dict):
        raise CliError(f"the '{where}{name}' section must be an object, got {section!r}" if name in parent
                       else f"config needs a '{where}{name}' section")
    return section


def command_config(args) -> dict:
    """A command's config: the file, then --set and --seed, holding only the
    known sections."""
    cfg = load_config(args.config, args.set, args.seed)
    _check_keys("config", cfg, _SECTIONS)
    return cfg


def check_model_overrides(set_flags: list[str], model_cfg: ModelConfig, loaded: str) -> None:
    """A --set model.* flag must agree with the loaded model's config, read
    from the artifact that ``loaded`` names; a command that loads a model
    never rebuilds it from the config."""
    flags = _apply_overrides({}, set_flags).get("model")
    if flags is None:
        return
    if not isinstance(flags, dict):
        raise CliError(f"--set model must be an object, got {flags!r}")
    try:
        wanted = ModelConfig(**{**model_cfg.to_dict(), **flags})
    except TypeError as e:
        raise CliError(f"--set model: {e}") from None
    if wanted != model_cfg:
        differ = [f"model.{k}={v!r}" for k, v in flags.items() if v != getattr(model_cfg, k)]
        raise CliError(f"--set {', '.join(differ)} disagrees with the {loaded}'s model "
                       f"{json.dumps(model_cfg.to_dict(), separators=(',', ':'))}")


def model_config(cfg: dict) -> ModelConfig:
    try:
        return ModelConfig(**_section(cfg, "model"))
    except TypeError as e:
        raise CliError(f"model section: {e}") from None


def plan_from(cfg: dict, depth: int):
    section = _section(cfg, "plan")
    _check_keys("plan", section, _PLAN_KEYS)
    if len(section) > 1:
        raise CliError("plan takes 'stages' or 'sizes', not both")
    if not section:
        raise CliError("plan section needs 'stages' or 'sizes'")
    [(key, value)] = section.items()
    try:
        plan = custom_plan(value) if key == "sizes" else balanced_plan(depth, value)
    except PlanError as e:
        raise CliError(f"plan.{key}: {e}") from None
    if plan.total_layers != depth:
        raise CliError(f"plan sizes sum to {plan.total_layers}, model depth is {depth}")
    return plan


# What evaluation fills in for a train section that leaves out the keys only
# training reads; every key the section does give is still checked.
_EVAL_ONLY = {"epochs": 0, "batch_size": 1}


def train_config(cfg: dict, defaults: dict | None = None, **forced) -> TrainConfig:
    """The train section as a TrainConfig: ``defaults`` fill the keys it leaves
    out, and ``forced`` override the keys it gives once the section, as
    given, has passed its checks."""
    section = {} if cfg.get("train") is None else _section(cfg, "train")
    try:
        return replace(TrainConfig(**{**(defaults or {}), **forced, **section}), **forced)
    except TypeError as e:
        raise CliError(f"train section: {e}") from None


def datasets_from(cfg: dict) -> tuple[Dataset, Dataset]:
    section = _section(cfg, "data")
    _check_keys("data", section, _DATA_KEYS)
    kinds = [k for k in _SOURCE_RULES if k in section]
    if len(kinds) != 1:
        raise CliError("data section needs 'synthetic' or 'idx'" + (", not both" if kinds else ""))
    kind = kinds[0]
    s, rules = _section(section, kind, "data."), _SOURCE_RULES[kind]
    _check_keys(f"data.{kind}", s, rules)
    missing = [k for k in rules if k not in s and k != "seed"]
    if missing:
        raise CliError(f"data.{kind} needs {', '.join(map(repr, missing))}")
    check(s, rules, CliError, f"data.{kind}.")
    if kind == "synthetic":
        full = make_synthetic(s["n"], s["classes"], s["size"], s.get("seed", 0))
    else:
        full = check_idx(s["images"], s["labels"])  # a bad file exits 4 before a bad fraction exits 2
    check(section, _SPLIT_RULES, CliError, "data.")
    return split(full, section.get("train_fraction", 0.8), section.get("split_seed", 0))  # IDX: read in split order


# ---- run directory helpers --------------------------------------------------------


def _write_manifest(outdir: Path, command: str, argv: list[str], resolved: dict, artifacts: list[str],
                    extra: dict, started: float) -> None:
    lines = [
        f"command={command}",
        f"argv={shlex.join(argv)}",
        f"package_version={__version__}",
        f"config={json.dumps(resolved, sort_keys=True, separators=(',', ':'))}",
        *_environment(),
    ]
    for k, v in extra.items():
        lines.append(f"{k}={v}")
    for name in artifacts:
        lines.append(f"artifact.{name}={fnv1a64((outdir / name).read_bytes()):#018x}")
    lines.append(f"wallclock_seconds={time.perf_counter() - started:.3f}")
    _write_lines(lines, outdir / "manifest.txt")


def _environment() -> list[str]:
    """Manifest lines naming the interpreter, numpy, its BLAS and that BLAS's
    thread count ("unknown" where numpy does not say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    threads = openblas_threads()
    return [f"python={platform.python_version()}", f"numpy={np.__version__}", f"blas={blas}",
            f"blas_threads={threads[0]() if threads else 'unknown'}"]


def _write_lines(lines: list[str], path: Path) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


def _eval_line(tag: str, loss: float, top1: float) -> str:
    return f"{tag}: loss={loss:.6f} top1={top1:.6f}"


# ---- commands -----------------------------------------------------------------------
#
# A command never touches --out: it does its work, prints its line and returns
# (resolved config, {artifact name: writer(path)}, extra manifest lines). main
# creates --out only after that, so a failed run leaves no directory behind.

Run = tuple[dict, dict, dict]


def cmd_train_teacher(args) -> Run:
    cfg = command_config(args)
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
    cfg = command_config(args)
    mcfg = model_config(cfg)
    tcfg = train_config(cfg)
    plan = plan_from(cfg, mcfg.depth)
    train_data, val_data = datasets_from(cfg)

    teacher = None  # train_model caches a teacher checkpoint's logits itself
    if args.teacher_cache:
        teacher = load_logit_cache(args.teacher_cache)
    elif args.teacher_checkpoint:
        teacher = load_checkpoint(args.teacher_checkpoint)

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
    model, report = expansion(pack, spec)  # saved as is: an untied checkpoint stores every position's set
    print(f"descendant: depth={args.depth} strategy={spec.strategy} "
          f"params={count_params(model, unique_only=False):,}")
    provenance = {"command": "init-des", "pack": str(args.pack), "strategy": spec.strategy,
                  "order": str(spec.order), "seed": spec.seed}
    resolved = {"pack": str(args.pack), "depth": args.depth, "strategy": spec.strategy,
                "order": str(spec.order), "seed": spec.seed}
    return resolved, {"descendant.sws": partial(save_checkpoint, model, provenance=provenance),
                      "assignment.csv": partial(write_assignment_csv, report)}, {}


def cmd_finetune(args) -> Run:
    cfg = command_config(args)
    model = load_checkpoint(args.checkpoint)
    check_model_overrides(args.set, model.cfg, "checkpoint")
    train_data, val_data = datasets_from(cfg)
    tcfg = train_config(cfg, None if args.teacher_cache else {"alpha": 0.0})  # labels only unless asked
    teacher = load_logit_cache(args.teacher_cache) if args.teacher_cache else None
    metrics = train_model(model, train_data, val_data, tcfg, teacher)
    print(_eval_line("finetuned", metrics.final.val_loss, metrics.final.top1))
    provenance = {"command": "finetune", "seed": tcfg.seed, "from": str(args.checkpoint)}
    return cfg, {"finetuned.sws": partial(save_checkpoint, model, provenance=provenance),
                 "metrics.csv": metrics.write_csv}, {}


def cmd_eval(args) -> Run:
    cfg = command_config(args)
    model = load_checkpoint(args.checkpoint)
    check_model_overrides(args.set, model.cfg, "checkpoint")
    train_data, val_data = datasets_from(cfg)
    data = {"train": train_data, "val": val_data}[args.split]
    loss, top1 = evaluate(model, data, train_config(cfg, _EVAL_ONLY).eval_batch_size)
    print(_eval_line("eval", loss, top1))
    lines = ["split,loss,top1", f"{args.split},{loss:.6f},{top1:.6f}"]
    return cfg, {"eval.csv": partial(_write_lines, lines)}, {"checkpoint": str(args.checkpoint), "split": args.split}


def cmd_sweep_depth(args) -> Run:
    cfg = command_config(args)
    pack = load_learngene(args.pack)
    check_model_overrides(args.set, pack.cfg, "learngene pack")
    vanilla = pack_from_vanilla(load_checkpoint(args.vanilla))
    train_data, val_data = datasets_from(cfg)
    order = InitOrder.parse(args.order)
    batch_size = train_config(cfg, _EVAL_ONLY).eval_batch_size
    tcfg = train_config(cfg, alpha=0.0, epochs=args.scratch_epochs) if args.scratch_epochs > 0 else None
    if tcfg is None:  # only the validation rows are read: own them, and let the split's base go
        train_data = None
        val_data = Dataset(val_data.rows.copy(), val_data.labels.copy(), val_data.num_classes, val_data.source)

    # Each expansion is evaluated as a view of its pack, so no parameter is
    # copied; params counts every position, as the owned descendant holds.
    rows = []
    for depth in args.depths:
        spec = DescendantSpec(depth=depth, strategy=args.strategy, order=order, seed=args.des_seed)
        for method, source in (("sws", pack), ("simple_lg", vanilla)):
            view, _ = expansion(source, spec)
            loss, top1 = evaluate(view, val_data, batch_size)
            rows.append((depth, count_params(view, unique_only=False), method, loss, top1))

        if tcfg is not None:
            scratch_cfg = replace(tcfg, seed=tcfg.seed + depth)
            scratch = build_model(replace(pack.cfg, depth=depth), scratch_cfg.seed)
            final = train_model(scratch, train_data, val_data, scratch_cfg).final
            rows.append((depth, count_params(scratch), "scratch", final.val_loss, final.top1))

    rows.sort(key=lambda r: (r[0], r[2]))
    lines = ["depth,params,method,val_loss,top1"]
    for depth, params, method, loss, top1 in rows:
        print(f"depth={depth} method={method} params={params} val_loss={loss:.6f} top1={top1:.6f}")
        lines.append(f"{depth},{params},{method},{loss:.6f},{top1:.6f}")
    return cfg, {"sweep.csv": partial(_write_lines, lines)}, {"pack": str(args.pack), "vanilla": str(args.vanilla),
                                                             "depths": ",".join(map(str, args.depths))}


# ---- argument parsing ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value (JSON literal or bare string); repeatable")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", required=True, help="output directory for artifacts")


def _at_least(least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
    return value


_non_negative = partial(_at_least, 0)


def _depths(text: str) -> list[int]:
    """Comma-separated depths, each an integer >= 1; sorted, repeats dropped."""
    return sorted({_at_least(1, entry) for entry in text.split(",")})


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
    p.add_argument("--depths", type=_depths, required=True, help="comma-separated depths, e.g. 5,6,7,8")
    _add_expansion(p)
    p.add_argument("--scratch-epochs", type=_non_negative, default=0,
                   help="also train a scratch model per depth for this many epochs")
    p.set_defaults(fn=cmd_sweep_depth)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        resolved, writers, extra = args.fn(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            write(out / name)
        _write_manifest(out, args.command, argv, resolved, list(writers), extra, started)
    except Exception as e:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(e, kinds)), EXIT_UNEXPECTED)
        prefix = "error" if code != EXIT_UNEXPECTED else f"unexpected error: {type(e).__name__}"
        text = str(e)
        if isinstance(e, MemoryError):
            text = "out of memory: a size in the config or its inputs is too large" + (f" ({text})" if text else "")
        print(f"{prefix}: {text}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

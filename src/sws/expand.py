"""Expanding a learngene pack into descendants of arbitrary depth.

The cyclic-contiguous strategy keeps stages contiguous: the target depth is
split across stages in proportion to the source plan, and each position holds
its stage's layer set. At the source depth this reproduces the auxiliary
network exactly. Two other strategies exist for comparisons, a round-robin
interleaving and a seeded random pick per position.

An expansion is a view of the pack: each position holds the pack's own stage
set, and the shared tensors are the pack's, so a model of any depth costs no
parameter copies. Evaluating views is how ``sweep-depth`` compares depths.
A descendant is the owned copy of that view: every position owns its
tensors, so fine-tuning can specialize positions independently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from .rng import SplitMix64
from .sharing import LearngenePack, StagePlan, custom_plan
from .vit import MAX_SIZE, ModelParams, is_int, is_size, reinit_head

GROUPS = ("front", "mid", "last")
STRATEGIES = ("cyclic-contiguous", "cyclic-roundrobin", "random")


class ExpandError(ValueError):
    pass


@dataclass(frozen=True)
class InitOrder:
    """Priority of the depth groups when spare layers are handed out.

    Stages are grouped by position: the first ceil(M/3) stages are "front",
    the last ceil(M/3) are "last", the rest are "mid". Spare layers go one
    per stage, groups taken in priority order, ascending index inside each.
    """

    priority: tuple[str, str, str] = ("front", "mid", "last")

    def __post_init__(self):
        if sorted(self.priority) != sorted(GROUPS):
            raise ExpandError(f"order must be a permutation of {GROUPS}, got {self.priority}")

    @classmethod
    def parse(cls, text: str) -> "InitOrder":
        parts = tuple(text.strip().lower().split("-"))
        return cls(parts)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return "-".join(self.priority)

    def fill_sequence(self, num_stages: int) -> list[int]:
        """Stage indices in the order they receive spare layers."""
        edge = math.ceil(num_stages / 3)
        cut = max(edge, num_stages - edge)
        members = {"front": range(edge), "mid": range(edge, cut), "last": range(cut, num_stages)}
        return [i for group in self.priority for i in members[group]]


DEFAULT_ORDER = InitOrder()


@dataclass(frozen=True)
class DescendantSpec:
    depth: int
    strategy: str = "cyclic-contiguous"
    order: InitOrder = DEFAULT_ORDER
    seed: int = 0
    classes: int | None = None  # None keeps the pack's class count

    def __post_init__(self):
        if not is_size(self.depth):
            raise ExpandError(f"descendant depth must be an integer from 1 to {MAX_SIZE}, got {self.depth!r}")
        if self.strategy not in STRATEGIES:
            raise ExpandError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not (self.classes is None or is_int(self.classes, 1)):
            raise ExpandError(f"classes must be a positive integer or None, got {self.classes!r}")


def stage_partition(target_depth: int, plan: StagePlan, order: InitOrder = DEFAULT_ORDER) -> tuple[int, ...]:
    """Per-stage layer counts for a contiguous expansion to target_depth.

    Each stage starts from floor(target * its share of the source depth),
    raised to at least 1, and the remaining layers are handed out one per
    stage along the order's fill sequence. Very lopsided plans can overshoot
    the target through the at-least-1 floor; the excess is then taken back
    one layer at a time walking the fill sequence backwards, never dropping
    a stage below 1.
    """
    m = plan.num_stages
    if target_depth < m:
        raise ExpandError(f"contiguous expansion needs depth >= {m} stages, got {target_depth}")
    total = plan.total_layers
    counts = [max(1, (target_depth * s) // total) for s in plan.stage_sizes]
    seq = order.fill_sequence(m)
    leftover = target_depth - sum(counts)
    if leftover > 0:  # fewer than m: each count exceeds target * share - 1
        for i in seq[:leftover]:
            counts[i] += 1
    while leftover < 0:
        for i in reversed(seq):
            if counts[i] > 1 and leftover < 0:
                counts[i] -= 1
                leftover += 1
    return tuple(counts)


# ---- per-position assignments ----------------------------------------------------


def contiguous_assignment(target_depth: int, plan: StagePlan, order: InitOrder = DEFAULT_ORDER) -> list[int]:
    return StagePlan(stage_partition(target_depth, plan, order)).stage_of_position()


def roundrobin_assignment(target_depth: int, num_stages: int) -> list[int]:
    return [i % num_stages for i in range(target_depth)]


def random_assignment(target_depth: int, num_stages: int, seed: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.randbelow(num_stages) for _ in range(target_depth)]


def assignment_for(plan: StagePlan, spec: DescendantSpec) -> list[int]:
    """0-based stage index per descendant position, chosen by ``spec.strategy``."""
    if spec.strategy == "cyclic-contiguous":
        return contiguous_assignment(spec.depth, plan, spec.order)
    if spec.strategy == "cyclic-roundrobin":
        return roundrobin_assignment(spec.depth, plan.num_stages)
    return random_assignment(spec.depth, plan.num_stages, spec.seed)


def assignment_report(assignment: list[int]) -> list[tuple[int, int]]:
    """(position, source set) pairs, both 1-based, for logs and CSV output."""
    return [(i + 1, m + 1) for i, m in enumerate(assignment)]


def write_assignment_csv(report: list[tuple[int, int]], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["position", "learngene_index"])
        w.writerows(report)


# ---- descendant construction -------------------------------------------------------


def expansion(pack: LearngenePack, spec: DescendantSpec) -> tuple[ModelParams, list[tuple[int, int]]]:
    """A model of spec.depth that is a view of the pack, copying nothing.

    Each position holds the pack's own stage set, and the shared components
    (patch embedding, class token, positional embedding, final norm, head)
    are the pack's tensors. When spec.classes differs from the pack's, the
    view gets a new head drawn from spec.seed; the pack itself is never
    written. The view has no plan: its aliasing follows the assignment, not
    a contiguous stage plan. Training it would train the pack.
    """
    assignment = assignment_for(pack.plan, spec)
    sets = pack.layer_sets
    shared = {name: getattr(pack, name) for name in ModelParams.SHARED_FIELDS}
    view = ModelParams(cfg=replace(pack.cfg, depth=spec.depth), layers=[sets[m] for m in assignment], **shared)
    classes = spec.classes if spec.classes is not None else pack.cfg.classes
    if classes != pack.cfg.classes:
        reinit_head(view, classes, spec.seed)
    return view, assignment_report(assignment)


def init_descendant(pack: LearngenePack, spec: DescendantSpec) -> tuple[ModelParams, list[tuple[int, int]]]:
    """The owned copy of ``expansion(pack, spec)``: an untied model of
    spec.depth in which every layer position holds its own deep copy of its
    stage set, with the same values, head and report as the view."""
    view, report = expansion(pack, spec)
    return view.clone(), report


def pack_from_vanilla(model: ModelParams) -> LearngenePack:
    """Treat each layer of an ordinary untied model as a one-layer stage.

    This is the baseline expansion: no sharing was ever trained, the layers
    just get stretched across the target depth the same way a real pack is.
    The pack holds the model's own tensors; nothing is copied.
    """
    if model.plan is not None:
        raise ExpandError("expected an untied model, this one carries a tying plan")
    plan = custom_plan([1] * len(model.layers))
    return LearngenePack(**{**vars(model), "layers": list(model.layers), "plan": plan},
                         provenance={"source": "vanilla"})


def simple_lg_expand(model: ModelParams, spec: DescendantSpec) -> tuple[ModelParams, list[tuple[int, int]]]:
    """Expand a plain model's layers to spec.depth as pseudo learngenes."""
    return init_descendant(pack_from_vanilla(model), spec)

"""Stage plans, tied auxiliary models, and learngene extraction.

A stage plan splits the depth axis of a transformer into contiguous stages.
The auxiliary model allocates one layer parameter set per stage and reuses
that set (the same Tensor objects) at every position inside the stage, so a
stage of size s applies its block s times in sequence. Gradient accumulation
in the tensor core then sums the per-position contributions into the shared
storage with no extra bookkeeping here.

A learngene pack is such a tied model (stage sets plus plan) plus
provenance. Extraction clones the auxiliary model with its tying intact; the
pack is persisted in the same layout as a tied checkpoint, under geneNN
tensor names, and later expanded into descendants of other depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .vit import LayerParams, ModelConfig, ModelParams, build_params, is_int

PACK_VERSION = 1


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class StagePlan:
    """Sizes of the contiguous stages, front to back."""

    stage_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.stage_sizes) == 0:
            raise PlanError("a plan needs at least one stage")
        for s in self.stage_sizes:
            if not is_int(s, 1):
                raise PlanError(f"stage sizes must be positive integers, got {self.stage_sizes}")

    @property
    def num_stages(self) -> int:
        return len(self.stage_sizes)

    @property
    def total_layers(self) -> int:
        return sum(self.stage_sizes)

    def stage_of_position(self) -> list[int]:
        """Stage index for each depth position, front to back."""
        out = []
        for m, s in enumerate(self.stage_sizes):
            out.extend([m] * s)
        return out


def center_out_order(m: int) -> list[int]:
    """Stage indices sorted middle first, alternating outward, front wins ties."""
    c = (m - 1) / 2.0
    return sorted(range(m), key=lambda i: (abs(i - c), i))


def balanced_plan(total_layers: int, num_stages: int) -> StagePlan:
    """Split total_layers into num_stages nearly equal stages.

    Every stage gets floor(L/M); the L mod M leftover layers go to stages in
    center-out order, so the extra capacity sits in the middle of the network.
    """
    if not is_int(num_stages, 1):
        raise PlanError(f"the stage count must be a positive integer, got {num_stages!r}")
    if total_layers < num_stages:
        raise PlanError(f"cannot split {total_layers} layers into {num_stages} stages of size >= 1")
    base, extra = divmod(total_layers, num_stages)
    sizes = [base] * num_stages
    for i in center_out_order(num_stages)[:extra]:
        sizes[i] += 1
    return StagePlan(tuple(sizes))


def custom_plan(sizes) -> StagePlan:
    if not isinstance(sizes, (list, tuple)):
        raise PlanError(f"stage sizes must be a list of positive integers, got {sizes!r}")
    return StagePlan(tuple(sizes))


# ---- tied model ---------------------------------------------------------------


def build_aux(cfg: ModelConfig, plan: StagePlan, seed: int, dtype=np.float32) -> ModelParams:
    """Model whose layer list repeats one parameter set per stage."""
    if plan.total_layers != cfg.depth:
        raise PlanError(f"plan covers {plan.total_layers} layers but cfg.depth is {cfg.depth}")
    return build_params(cfg, seed, plan.stage_of_position(), plan=plan, dtype=dtype)


def check_tying(params: ModelParams) -> list[LayerParams]:
    """Verify the aliasing matches the attached plan; return the stage sets in stage order."""
    plan = params.plan
    if plan is None:
        raise PlanError("model has no attached plan")
    stage_of = plan.stage_of_position()
    if len(stage_of) != len(params.layers):
        raise PlanError(f"plan covers {len(stage_of)} positions, model has {len(params.layers)}")
    reps: dict[int, LayerParams] = {}
    for pos, m in enumerate(stage_of):
        rep = reps.setdefault(m, params.layers[pos])
        if params.layers[pos] is not rep:
            raise PlanError(f"position {pos} does not alias the stage {m} parameter set")
    ids = {id(lp) for lp in reps.values()}
    if len(ids) != plan.num_stages:
        raise PlanError("distinct stages share a parameter set")
    return list(reps.values())


def stage_sets(params: ModelParams) -> list[LayerParams]:
    """The distinct per-stage parameter sets of a tied model, in stage order."""
    return check_tying(params)


def materialize_untied(params: ModelParams) -> ModelParams:
    """Deep-copied clone with every position holding its own parameter set."""
    return params.clone()


# ---- extraction ----------------------------------------------------------------


@dataclass
class LearngenePack(ModelParams):
    """A tied model (stage sets + plan) plus provenance.

    A pack from ``extract_learngene`` or the store owns its tensors. A vanilla
    pack (``expand.pack_from_vanilla``) shares its model's tensors, arrays
    included, so writing to either writes to both."""

    provenance: dict = field(default_factory=dict)
    version: ClassVar[int] = PACK_VERSION

    @property
    def layer_sets(self) -> list[LayerParams]:
        return stage_sets(self)

    @property
    def num_stages(self) -> int:
        return self.plan.num_stages


def extract_learngene(aux: ModelParams, provenance: dict | None = None) -> LearngenePack:
    """Pull the stage parameter sets out of a tied model as independent copies."""
    check_tying(aux)
    return LearngenePack(**vars(aux.clone(plan=aux.plan)), provenance=dict(provenance or {}))

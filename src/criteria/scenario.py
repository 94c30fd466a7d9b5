"""Scenario extraction: road-structure, difficulty, and length tagging.

The three axes (turn/cruising, hard/middle/easy, short/long) form a
12-category grid used for fine-grained reporting.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import geom
from .errors import DataConsistencyError, SettingError
from .map_model import RoadMap, is_turn_lane
from .metrics import mean, total
from .trajectory import Trajectory


class Structure(Enum):
    TURN = "TURN"
    CRUISING = "CRUISING"


class Difficulty(Enum):
    HARD = "HARD"
    MIDDLE = "MIDDLE"
    EASY = "EASY"


class LengthClass(Enum):
    SHORT = "SHORT"
    LONG = "LONG"


@dataclass(frozen=True)
class ScenarioRecord:
    id: str
    map_id: str
    agent_id: str
    dt: float
    past: Trajectory
    future: Trajectory

    def __post_init__(self):
        if self.past.dt != self.dt or self.future.dt != self.dt:
            raise ValueError(f"scenario {self.id!r}: past/future dt mismatch")


@dataclass(frozen=True)
class ScenarioConfig:
    turn_radius: float = 100.0
    alpha: tuple[float, float, float] = (0.10, 0.45, 0.45)
    beta: float = 28.8

    def __post_init__(self):
        SettingError.check_finite(self)
        if self.turn_radius <= 0:
            raise SettingError("turn_radius must be positive", "turn_radius")
        if self.beta <= 0:
            raise SettingError("beta must be positive", "beta")
        if any(a <= 0 for a in self.alpha) or abs(total(self.alpha) - 1.0) > 1e-9:
            raise SettingError("alpha must be positive and sum to 1", "alpha")


@dataclass(frozen=True)
class ScenarioTag:
    structure: Structure
    difficulty: Difficulty
    length: LengthClass

    def category(self) -> str:
        return f"{self.structure.value}/{self.difficulty.value}/{self.length.value}"


def tag_structure(
    rec: ScenarioRecord, road: RoadMap, cfg: ScenarioConfig
) -> Structure:
    """TURN iff any turn lane lies within the radius of any ground-truth
    point (past and future)."""
    if road.map_id != rec.map_id:
        raise DataConsistencyError(
            f"scenario {rec.id!r} references map {rec.map_id!r}, "
            f"got {road.map_id!r}"
        )
    points = np.vstack([rec.past.points, rec.future.points])
    near = road.lanes_within_radius(points, cfg.turn_radius)
    turn = [is_turn_lane(road.lanes[lane_id]) for lane_id in road.lane_ids]
    return Structure.TURN if near[:, turn].any() else Structure.CRUISING


def difficulty_scores(
    min_fde_by_model: Mapping[str, Sequence[float]],
) -> dict[str, float]:
    """Per-scenario mean minFDE across all evaluated models."""
    sizes = {len(v) for v in min_fde_by_model.values()}
    if len(sizes) > 1:
        offender = next(
            sid
            for sid, v in min_fde_by_model.items()
            if len(v) != len(next(iter(min_fde_by_model.values())))
        )
        raise DataConsistencyError(
            f"scenario {offender!r}: ragged per-model minFDE table"
        )
    return {sid: mean(values) for sid, values in min_fde_by_model.items()}


def partition_difficulty(
    scores: Mapping[str, float], alpha: tuple[float, float, float]
) -> dict[str, Difficulty]:
    """Split scenarios into hard/middle/easy by descending score.

    Sizes are round-half-up of alpha1*N and alpha2*N with the remainder easy;
    ties in score break by ascending id, so the split is deterministic.
    """
    if not scores:
        raise ValueError("scores must be non-empty")
    order = sorted(scores, key=lambda sid: (-scores[sid], sid))
    n = len(order)
    n_hard = int(math.floor(alpha[0] * n + 0.5))
    n_mid = int(math.floor(alpha[1] * n + 0.5))
    out: dict[str, Difficulty] = {}
    for i, sid in enumerate(order):
        if i < n_hard:
            out[sid] = Difficulty.HARD
        elif i < n_hard + n_mid:
            out[sid] = Difficulty.MIDDLE
        else:
            out[sid] = Difficulty.EASY
    return out


def tag_length(rec: ScenarioRecord, beta: float) -> LengthClass:
    """LONG iff the future's arc length reaches ``beta`` (inclusive)."""
    return (
        LengthClass.LONG
        if geom.arc_length(rec.future.points) >= beta
        else LengthClass.SHORT
    )


def tag_all(
    records: Sequence[ScenarioRecord],
    maps: Mapping[str, RoadMap],
    min_fde_by_model: Mapping[str, Sequence[float]],
    cfg: ScenarioConfig,
) -> tuple[dict[str, ScenarioTag], dict[str, int]]:
    """Compose the three taggers; also returns per-category counts. The
    difficulty split reads the minFDE rows of ``records`` only; rows for
    other ids are ignored."""
    if not records:
        return {}, {}
    for rec in records:
        if rec.map_id not in maps:
            raise DataConsistencyError(
                f"scenario {rec.id!r}: unknown map {rec.map_id!r}"
            )
    missing = [r.id for r in records if r.id not in min_fde_by_model]
    if missing:
        raise DataConsistencyError(f"scenarios missing minFDE values: {missing}")
    difficulty = partition_difficulty(
        difficulty_scores({r.id: min_fde_by_model[r.id] for r in records}),
        cfg.alpha,
    )
    tags = {}
    for rec in records:
        tags[rec.id] = ScenarioTag(
            structure=tag_structure(rec, maps[rec.map_id], cfg),
            difficulty=difficulty[rec.id],
            length=tag_length(rec, cfg.beta),
        )
    counts = Counter(tag.category() for tag in tags.values())
    return tags, dict(sorted(counts.items()))

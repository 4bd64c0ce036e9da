"""ARDA core: the end-to-end automatic relational data augmentation pipeline."""

from repro.core.config import ARDAConfig, ServingConfig, SweepConfig
from repro.core.executor import (
    JoinExecutor,
    ProcessJoinExecutor,
    SerialJoinExecutor,
    ThreadJoinExecutor,
    make_executor,
)
from repro.core.join_plan import JoinBatch, build_join_plan
from repro.core.join_execution import (
    execute_join,
    join_candidates,
    prepare_kept_joins,
    replay_kept_joins,
)
from repro.core.arda import ARDA
from repro.core.results import AugmentationReport, BatchReport

__all__ = [
    "ARDA",
    "ARDAConfig",
    "ServingConfig",
    "SweepConfig",
    "AugmentationReport",
    "BatchReport",
    "JoinBatch",
    "JoinExecutor",
    "SerialJoinExecutor",
    "ThreadJoinExecutor",
    "ProcessJoinExecutor",
    "make_executor",
    "build_join_plan",
    "execute_join",
    "join_candidates",
    "prepare_kept_joins",
    "replay_kept_joins",
]

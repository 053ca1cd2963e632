"""Shared utilities: seeding, logging, registries, grouping and checkpoints."""

from repro.utils.checkpoint import load_params, save_params
from repro.utils.grouping import group_indices, stack_group
from repro.utils.logging import get_logger
from repro.utils.registry import Registry
from repro.utils.seeding import new_rng, seed_everything

__all__ = [
    "Registry",
    "get_logger",
    "group_indices",
    "load_params",
    "new_rng",
    "save_params",
    "seed_everything",
    "stack_group",
]

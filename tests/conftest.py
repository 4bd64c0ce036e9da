"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.relational import Table


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "stress: deep randomized runs (concurrency, streaming ingest, tree "
        "byte identity, spill-join byte identity); tier-1 runs a quick "
        "profile, set ARDA_STRESS=<iterations> for the full sweep",
    )


@pytest.fixture(scope="session")
def si_repro_dir(tmp_path_factory) -> Path:
    """Where failing snapshot-isolation histories are serialized for replay.

    Defaults to ``tests/_si_failures`` (checked-in ``.gitignore``\\ d path that
    CI uploads as an artifact); ``ARDA_SI_REPRO_DIR`` overrides it.
    """
    override = os.environ.get("ARDA_SI_REPRO_DIR", "").strip()
    if override:
        return Path(override)
    return Path(__file__).parent / "_si_failures"


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture
def base_table():
    """A small base table with an entity key, mixed column types and a target."""
    return Table.from_dict(
        {
            "entity_id": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            "feature_a": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "category": ["x", "y", "x", "y", "x", "y"],
            "target": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        },
        name="base",
    )


@pytest.fixture
def foreign_table():
    """A foreign table joinable on entity_id, with one duplicate key."""
    return Table.from_dict(
        {
            "entity_id": [0.0, 1.0, 1.0, 2.0, 9.0],
            "value": [100.0, 200.0, 300.0, 400.0, 500.0],
            "label": ["a", "b", "c", "a", "d"],
        },
        name="foreign",
    )


@pytest.fixture
def regression_matrix(rng):
    """A (X, y) regression problem with 4 informative and 16 noise features."""
    n = 250
    informative = rng.normal(size=(n, 4))
    noise = rng.normal(size=(n, 16))
    weights = np.array([2.0, -1.5, 1.0, 0.5])
    y = informative @ weights + 0.1 * rng.normal(size=n)
    X = np.column_stack([informative, noise])
    return X, y


@pytest.fixture
def classification_matrix(rng):
    """A (X, y) binary classification problem with 3 informative and 12 noise features."""
    n = 250
    informative = rng.normal(size=(n, 3))
    noise = rng.normal(size=(n, 12))
    score = informative @ np.array([2.0, -1.0, 1.5])
    y = (score > 0).astype(np.float64)
    X = np.column_stack([informative, noise])
    return X, y

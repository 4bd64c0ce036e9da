"""Hypothesis settings shared by the suites CI's stress steps run deep.

Tier-1 runs each suite's own example count; under ``-m stress`` with
``ARDA_STRESS`` set, the same tests run derandomized (every run checks the
identical examples) with ``ARDA_STRESS / 100`` times as many.  This lives in
its own module rather than ``conftest.py`` because ``benchmarks/conftest.py``
shares that module name, so ``import conftest`` can resolve to either.
"""

from __future__ import annotations

import os

from hypothesis import settings


def deep_settings(examples: int) -> settings:
    """Tier-1's ``examples``, or a derandomized run scaled by ``ARDA_STRESS / 100``."""
    stress = int(os.environ.get("ARDA_STRESS", "").strip() or 0)
    if stress > 0:
        return settings(
            max_examples=max(1, examples * stress // 100), deadline=None, derandomize=True
        )
    return settings(max_examples=examples, deadline=None)

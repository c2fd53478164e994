"""Deterministic derivation of per-location and per-purpose random streams."""

from __future__ import annotations

import hashlib
import random


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def location_rng(seed: int, name: str) -> random.Random:
    """Independent stream for one location, so centralized and simulated runs
    draw identical per-endpoint randomness."""
    return random.Random(derived_seed(seed, f"loc:{name}"))

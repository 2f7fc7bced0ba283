import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from measured_groupoids import WeakPullbackResult, build_weak_pullback, random_cospan

settings.register_profile("slowbuild", deadline=None, max_examples=60)
settings.load_profile("slowbuild")


@dataclass(frozen=True)
class Sweep:
    """The property sweep: seeds 0-199 at the default bounds, every fifth
    with a null base, each with its cospan's weak pullback, and the seconds
    it took to build them all."""

    pullbacks: tuple[tuple[int, WeakPullbackResult], ...]
    build_s: float


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    """Built once for every test that walks the sweep."""
    start = time.perf_counter()
    pullbacks = []
    for seed in range(200):
        c = random_cospan(seed, with_null_base=seed % 5 == 4)
        pullbacks.append((seed, build_weak_pullback(c, validate=False)))
    return Sweep(tuple(pullbacks), time.perf_counter() - start)

"""An empty resolution memo for one test.

resolution._core_of is the memoized builder of the resolution: it keeps the
finished ResolutionData of each int n it has built, so a test that patches
something the resolution reads, or counts the work of an answer by n, would
otherwise read a resolution built before the patch.  empty_core_memo gives
the resolution module a new, empty memo around the same builder, with the
shared memo's bound, for the rest of the test; monkeypatch puts the shared
memo back afterwards, as the tests that swap in an empty exceptional._MEMO
do.  count_cores records the n of each resolution the memo builds.
"""

from functools import lru_cache

import planecone.resolution as resolution


def empty_core_memo(monkeypatch):
    """Install an empty resolution memo and return it (it has cache_clear)."""
    shared = resolution._core_of
    cores = lru_cache(**shared.cache_parameters())(shared.__wrapped__)
    monkeypatch.setattr(resolution, "_core_of", cores)
    return cores


def count_cores(monkeypatch):
    """Record the n of every miss of the core memo from now on.

    The memo's builder, resolution._core_of, calls min_slope(n) once on each
    miss, and nothing else in the module calls it.
    """
    original = resolution.min_slope
    built = []

    def counted(n):
        built.append(n)
        return original(n)

    monkeypatch.setattr(resolution, "min_slope", counted)
    return built

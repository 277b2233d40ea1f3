"""Reproducible random streams.

All randomness in the package flows through PCG64 generators keyed by
``numpy.random.SeedSequence``.  Independent substreams are derived from a
single 64-bit user seed through spawn keys, so that

* the same (seed, inputs) always produce bitwise-identical results,
* adding work units (e.g. another mixture center, another MI term) never
  perturbs the draws of existing units, and
* parallel evaluation of substreams is safe by construction: each center
  of ``plugin_entropy_mc`` reduces its own substream's draws to its own
  moments, so no block size or worker count changes the result.

``substream(seed, i, j, ...)`` returns the generator for the unit addressed
by the integer path ``(i, j, ...)``; ``derive_seed`` folds such a path into a
fresh 64-bit seed for APIs that take integer seeds.
"""

import numpy as np

__all__ = ["substream", "derive_seed"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for substream ``path`` of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, path)`` into a new 64-bit integer seed."""
    words = np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint32)
    return int(words[0]) | (int(words[1]) << 32)

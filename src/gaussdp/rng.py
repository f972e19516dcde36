"""Seeded, reproducible random number generation.

The generator is pinned so results are bit-identical across runs: uniform
bits come from numpy's PCG64 (O'Neill's permuted congruential generator,
2^128 state), keyed through numpy's SeedSequence so substreams can be derived
from (seed, index) pairs.  Gaussian variates are produced by the polar
Box-Muller (Marsaglia) method on top of that uniform stream rather than by
``Generator.normal``, so the exact sampling algorithm is fixed by this module
and independent of numpy's internal choices.  Do not change either algorithm
silently; the test suite asserts reproducibility.

numpy is imported inside each function, on first use: ``gaussdp`` imports
this module eagerly (through ``mech``), and a process that only calibrates
should not pay numpy's start-up cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .calib import _check_count

if TYPE_CHECKING:
    import numpy as np


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 generator for ``seed``; extra integers select a substream
    (e.g. ``generator(seed, trial_index)``)."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.PCG64(ss))


def standard_normal(n: int, gen: np.random.Generator) -> np.ndarray:
    """n independent N(0, 1) draws via polar Box-Muller on PCG64 uniforms.

    Pairs (u, v) uniform on [-1, 1)^2 are rejected unless 0 < s = u^2+v^2 < 1;
    each accepted pair yields two variates u*sqrt(-2 ln s / s) and
    v*sqrt(-2 ln s / s).  Batch sizes depend only on how many values are
    still missing, so the stream consumption (and hence the output) is a pure
    function of the seed.
    """
    import numpy as np

    n = _check_count("n", n, zero=True)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        need = n - filled
        # each drawn pair yields 2 accepted values with probability pi/4
        pairs = max(32, int(need / 1.5) + 16)
        uv = 2.0 * gen.random((pairs, 2)) - 1.0
        s = uv[:, 0] ** 2 + uv[:, 1] ** 2
        keep = (s > 0.0) & (s < 1.0)
        uv = uv[keep]
        s = s[keep]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        z = (uv * factor[:, None]).ravel()
        take = min(z.size, need)
        out[filled : filled + take] = z[:take]
        filled += take
    return out

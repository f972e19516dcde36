"""Seeded, reproducible random number generation.

The generator is pinned so results are bit-identical across runs: uniform
bits come from numpy's PCG64 (O'Neill's permuted congruential generator,
2^128 state), keyed through numpy's SeedSequence so substreams can be derived
from (seed, index) pairs.  Gaussian variates are produced by the polar
Box-Muller (Marsaglia) method on top of that uniform stream rather than by
``Generator.normal``, so the exact sampling algorithm is fixed by this module
and independent of numpy's internal choices.  Do not change either algorithm
silently; the test suite asserts reproducibility.

``standard_normal_rows`` draws one vector per generator, and row t equals
``standard_normal(n, gens[t])`` bit for bit: every generator's first batch
of uniforms lands in one stacked array, which is transformed in one pass,
and only a row that batch leaves short draws again, alone.
``standard_normal`` is its one-row case.

numpy is imported inside each function, on first use: ``gaussdp`` imports
this module eagerly (through ``mech``), and a process that only calibrates
should not pay numpy's start-up cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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
    """n independent N(0, 1) draws via polar Box-Muller on PCG64 uniforms
    (see ``standard_normal_rows``)."""
    return standard_normal_rows(n, (gen,))[0]


def standard_normal_rows(n: int, gens: Sequence[np.random.Generator]) -> np.ndarray:
    """A (len(gens), n) array whose row t holds n independent N(0, 1) draws
    from ``gens[t]``, via polar Box-Muller on PCG64 uniforms.

    Pairs (u, v) uniform on [-1, 1)^2 are rejected unless 0 < s = u^2+v^2 < 1;
    each accepted pair yields two variates u*sqrt(-2 ln s / s) and
    v*sqrt(-2 ln s / s).  A row draws its pairs in batches whose sizes depend
    only on how many of its values are still missing, so its stream
    consumption (and hence its values) is a pure function of its generator's
    seed, whatever the other rows.  Every row's first batch is transformed
    together.
    """
    import numpy as np

    n = _check_count("n", n, zero=True)
    if n == 0:
        return np.empty((len(gens), 0))
    uniforms = np.empty((len(gens), _batch_pairs(n), 2))
    for row, gen in zip(uniforms, gens):
        gen.random(out=row)
    z, got = _polar(uniforms)
    # each row's first n values, read past its end where it fell short;
    # those places are then filled from its own generator
    start = np.cumsum(got) - got
    out = z.take(start[:, None] + np.arange(n), mode="clip")
    for t in np.flatnonzero(got < n):
        filled = got[t]
        while filled < n:
            more, (count,) = _polar(gens[t].random((1, _batch_pairs(n - filled), 2)))
            take = min(count, n - filled)
            out[t, filled : filled + take] = more[:take]
            filled += take
    return out


def _batch_pairs(need: int) -> int:
    # each drawn pair yields 2 accepted values with probability pi/4
    return max(32, int(need / 1.5) + 16)


def _polar(uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # uniforms (rows, pairs, 2) on [0, 1) -> the variates of the accepted
    # pairs, row after row, and how many each row gave
    import numpy as np

    uv = 2.0 * uniforms - 1.0
    s = uv[:, :, 0] ** 2 + uv[:, :, 1] ** 2
    keep = (s > 0.0) & (s < 1.0)
    s = s[keep]
    # each pair moves as one 16-byte item, which numpy compacts several
    # times faster than the rows of a (pairs, 2) array
    z = uv.view(np.complex128)[:, :, 0][keep].view(np.float64).reshape(-1, 2)
    z *= np.sqrt(-2.0 * np.log(s) / s)[:, None]
    return z.ravel(), 2 * keep.sum(axis=1)

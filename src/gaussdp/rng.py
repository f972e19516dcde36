"""Seeded, reproducible random number generation.

The generator is pinned so results are bit-identical across runs: uniform
bits come from numpy's PCG64 (O'Neill's permuted congruential generator,
2^128 state), keyed through numpy's SeedSequence so substreams can be derived
from (seed, index) pairs.  Gaussian variates are produced by the polar
Box-Muller (Marsaglia) method on top of that uniform stream rather than by
``Generator.normal``, so the exact sampling algorithm is fixed by this module
and independent of numpy's internal choices.  Do not change either algorithm
silently; the test suite asserts reproducibility.

``standard_normal_rows(n, seed, keys)`` draws one vector per key, and row t
equals ``standard_normal(n, generator(seed, keys[t]))`` bit for bit.  It
builds no generator per row: it derives every row's PCG64 state from
(seed, key) with SeedSequence's hash, the seed's part once and the keys'
part over whole arrays, and draws each row's first batch of uniforms from
one reused PCG64 set to that state.  The stacked batches become normals in
one pass; a row that its batch leaves short draws on from the same PCG64,
set to its state again and advanced past that batch.  The tests check the
derived states against numpy's own.

numpy is imported inside each function, on first use: ``gaussdp`` imports
this module eagerly (through ``mech``), and a process that only calibrates
should not pay numpy's start-up cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from .calib import _check_count, _shown

if TYPE_CHECKING:
    import numpy as np

# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's 128-bit
# multiplier, as Python ints so that importing this module imports no numpy
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# generate_state's hash constant for each of 8 output words, and the next
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, j, 1 << 32) & _M32 for j in range(9))


def _check_seed(seed: int) -> int:
    # an int or a numpy integer, as numpy's SeedSequence takes; not a float
    if not hasattr(seed, "__index__") or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {_shown(seed)}")
    return int(seed)


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 generator for ``seed``; extra integers select a substream
    (e.g. ``generator(seed, trial_index)``)."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def standard_normal(n: int, gen: np.random.Generator) -> np.ndarray:
    """n independent N(0, 1) draws from ``gen`` via polar Box-Muller on
    PCG64 uniforms (see ``standard_normal_rows``)."""
    import numpy as np

    n = _check_count("n", n, zero=True)
    if n == 0:
        return np.empty(0)
    return _normal_rows(n, gen.random((1, _batch_pairs(n), 2)), lambda t: gen)[0]


def standard_normal_rows(n: int, seed: int, keys: Sequence[int]) -> np.ndarray:
    """A (len(keys), n) array whose row t holds n independent N(0, 1) draws
    from the substream ``generator(seed, keys[t])``, via polar Box-Muller on
    PCG64 uniforms; each key must be in [0, 2^32).

    Pairs (u, v) uniform on [-1, 1)^2 are rejected unless 0 < s = u^2+v^2 < 1;
    each accepted pair yields two variates u*sqrt(-2 ln s / s) and
    v*sqrt(-2 ln s / s).  A row draws its pairs in batches whose sizes depend
    only on how many of its values are still missing, so its stream
    consumption (and hence its values) is a pure function of (seed, key),
    whatever the other rows.  Every row's first batch is transformed
    together.
    """
    import numpy as np

    n = _check_count("n", n, zero=True)
    root = np.random.SeedSequence(_check_seed(seed))
    states = _pcg64_states(root, keys)
    if n == 0:
        return np.empty((len(states), 0))
    pairs = _batch_pairs(n)
    uniforms = np.empty((len(states), pairs, 2))
    bits = np.random.PCG64(root)
    gen = np.random.Generator(bits)

    def at_start(t: int) -> np.random.Generator:
        state, inc = states[t]
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        return gen

    for t, row in enumerate(uniforms):
        at_start(t).random(out=row)

    def after_first_batch(t: int) -> np.random.Generator:
        at_start(t)
        bits.advance(2 * pairs)  # one 64-bit output per double of the batch
        return gen

    return _normal_rows(n, uniforms, after_first_batch)


def _pcg64_states(
    root: np.random.SeedSequence, keys: Sequence[int]
) -> list[tuple[int, int]]:
    # PCG64(SeedSequence(root.entropy, spawn_key=(k,))).state's (state, inc)
    # per key.  root.pool is the pool before k is mixed in: its entropy is
    # the seed's uint32 words, which a spawn key pads with zeros to the
    # pool's 4, and the pool hashes a 0 for each missing word without one.
    import numpy as np

    key = np.asarray(keys)
    if key.ndim != 1 or key.size and (
        key.dtype.kind not in "iu" or key.min() < 0 or key.max() > _M32
    ):
        raise ValueError("keys must be a sequence of integers in [0, 2**32)")
    # k's four hashmix calls follow 4 per padded word; then generate_state
    # (4, uint64) hashes the pool twice over, all in (4, keys) and
    # (2, 4, keys) uint32 arrays, which wrap as the hash does
    c = _INIT_A * pow(_MULT_A, 4 * max(4, -(-root.entropy.bit_length() // 32)), 1 << 32)
    a = np.array([c * pow(_MULT_A, j, 1 << 32) & _M32 for j in range(5)], "u4")[:, None]
    h = (key.astype(np.uint32) ^ a[:4]) * a[1:]
    h ^= h >> 16
    m = root.pool[:, None] * _MIX_L - _MIX_R * h
    m ^= m >> 16
    b = np.array(_STATE_HASH, "u4")[:, None]
    u = (m ^ b[:8].reshape(2, 4, 1)) * b[1:].reshape(2, 4, 1)
    u = (u ^ u >> 16).astype(np.uint64)
    # pcg64_set_seed: inc = 2 seq + 1, and an LCG step from state 0, then
    # the initial state added, then a second step
    states = []
    for hi, lo, seq_hi, seq_lo in zip(*(u[:, 0::2] | u[:, 1::2] << 32).reshape(4, -1).tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _M128
        states.append((((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _normal_rows(
    n: int, uniforms: np.ndarray, refill: Callable[[int], np.random.Generator]
) -> np.ndarray:
    # uniforms (rows, _batch_pairs(n), 2) holds each row's first batch, and
    # refill(t) gives a generator on row t's substream, placed just after it
    import numpy as np

    z, got = _polar(uniforms)
    # each row's first n values, read past its end where it fell short;
    # those places are then filled from its own substream
    start = np.cumsum(got) - got
    out = z.take(start[:, None] + np.arange(n), mode="clip")
    for t in np.flatnonzero(got < n):
        gen, filled = refill(t), got[t]
        while filled < n:
            more, (count,) = _polar(gen.random((1, _batch_pairs(n - filled), 2)))
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

"""Seeded normal draws: ``standard_normal_rows`` against the polar Box-Muller
loop over one generator at a time, bit for bit, and the PCG64 states it
derives against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest

import gaussdp.rng
from gaussdp.rng import _pcg64_states, generator, standard_normal, standard_normal_rows

# (seed, key) whose first batch of 482 pairs holds fewer than the 350
# accepted pairs that 700 values need
SHORT = (2, 797)

# one-word, two-word, three-word and five-word seeds, and keys at the ends of
# 256-trial blocks and of the uint32 range
SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]
KEYS = [0, 1, 2, 255, 256, 257, 512, 513, 2**31, 2**32 - 1]


def reference_standard_normal(n, gen):
    # the pinned algorithm, one generator at a time: each batch of pairs is
    # sized by the values still missing
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        pairs = max(32, int(need / 1.5) + 16)
        uv = 2.0 * gen.random((pairs, 2)) - 1.0
        s = uv[:, 0] ** 2 + uv[:, 1] ** 2
        keep = (s > 0.0) & (s < 1.0)
        uv, s = uv[keep], s[keep]
        z = (uv * np.sqrt(-2.0 * np.log(s) / s)[:, None]).ravel()
        take = min(z.size, need)
        out[filled : filled + take] = z[:take]
        filled += take
    return out


@pytest.mark.parametrize("n", [0, 1, 10, 48, 700, 10_000])
def test_rows_equal_one_generator_draws(n):
    # the short key sits between others, so rows after it must still find
    # their own values, and last, where its values run past the end
    seed, short = SHORT
    keys = [1, 2, short, 3, 8, short]
    rows = standard_normal_rows(n, seed, keys)
    assert rows.shape == (len(keys), n)
    assert rows.dtype == np.float64
    for row, key in zip(rows, keys):
        assert row.tobytes() == reference_standard_normal(n, generator(seed, key)).tobytes()
        gen, alone = generator(seed, key), generator(seed, key)
        assert standard_normal(n, gen).tobytes() == row.tobytes()
        # one generator is left where the loop leaves it
        reference_standard_normal(n, alone)
        assert gen.random() == alone.random()


def test_short_rows_build_no_generator(monkeypatch):
    # a short row continues on the block's one PCG64, set to its state again
    # and advanced past its first batch: the block builds one PCG64 and one
    # Generator, whatever its short rows, and never calls generator()
    seed, short = SHORT
    keys = [short, 1, short, 4]
    want = [reference_standard_normal(700, generator(seed, key)).tobytes() for key in keys]
    made = []

    def counting(name):
        real = getattr(np.random, name)
        monkeypatch.setattr(np.random, name, lambda *args: made.append(name) or real(*args))

    counting("PCG64")
    counting("Generator")
    monkeypatch.setattr(gaussdp.rng, "generator", lambda *args: pytest.fail("generator called"))
    rows = standard_normal_rows(700, seed, keys)
    assert [row.tobytes() for row in rows] == want
    assert made == ["PCG64", "Generator"]


@pytest.mark.parametrize("seed", SEEDS + [6, 134, 2**40 + 3, 3**200])
def test_rows_equal_one_generator_draws_at_every_seed_width(seed):
    keys = range(250, 262)
    rows = standard_normal_rows(700, seed, keys)
    for row, key in zip(rows, keys):
        assert row.tobytes() == reference_standard_normal(700, generator(seed, key)).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_states_equal_numpy_seeding(seed):
    # numpy is the oracle: a numpy whose SeedSequence or PCG64 seeding
    # changed fails here instead of drifting silently
    for (state, inc), key in zip(_pcg64_states(np.random.SeedSequence(seed), KEYS), KEYS):
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,)))
        assert bits.state["state"] == {"state": state, "inc": inc}


def test_pinned_key_falls_short_in_its_first_batch():
    uv = 2.0 * generator(*SHORT).random((482, 2)) - 1.0
    s = uv[:, 0] ** 2 + uv[:, 1] ** 2
    assert np.count_nonzero((s > 0.0) & (s < 1.0)) < 350


def test_no_generators_give_no_rows():
    assert standard_normal_rows(5, 0, []).shape == (0, 5)
    assert standard_normal_rows(5, 0, range(0)).shape == (0, 5)


@pytest.mark.parametrize("keys", [[-1], [2**32], [1.0], [[1]], [2**70]], ids=repr)
def test_keys_outside_uint32_are_rejected(keys):
    with pytest.raises(ValueError, match=r"keys must be a sequence of integers in \[0, 2\*\*32\)"):
        standard_normal_rows(3, 0, keys)

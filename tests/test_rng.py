"""Seeded normal draws: ``standard_normal_rows`` against the polar Box-Muller
loop over one generator at a time, bit for bit."""

import numpy as np
import pytest

from gaussdp.rng import generator, standard_normal, standard_normal_rows

# (seed, key) whose first batch of 482 pairs holds fewer than the 350
# accepted pairs that 700 values need
SHORT = (2, 797)


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
    keys = [(3, 1), (3, 2), SHORT, (3, 3), (5, 8), SHORT]
    gens = [generator(*key) for key in keys]
    rows = standard_normal_rows(n, gens)
    assert rows.shape == (len(keys), n)
    assert rows.dtype == np.float64
    for row, gen, key in zip(rows, gens, keys):
        alone = generator(*key)
        assert row.tobytes() == reference_standard_normal(n, alone).tobytes()
        # each generator is left where the loop leaves it
        assert gen.random() == alone.random()
        assert standard_normal(n, generator(*key)).tobytes() == row.tobytes()


def test_pinned_key_falls_short_in_its_first_batch():
    uv = 2.0 * generator(*SHORT).random((482, 2)) - 1.0
    s = uv[:, 0] ** 2 + uv[:, 1] ** 2
    assert np.count_nonzero((s > 0.0) & (s < 1.0)) < 350


def test_no_generators_give_no_rows():
    assert standard_normal_rows(5, []).shape == (0, 5)

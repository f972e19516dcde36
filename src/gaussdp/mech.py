"""Executable Gaussian mechanisms and the desk-scale experiments.

Seeded noise sampling, the synthetic mean-estimation and categorical
histogram experiments, and a Monte-Carlo sampler of the privacy-loss
random variable (the empirical oracle for the analytic profiles).

An experiment runs a list of mechanisms at once: it builds its data once and
draws each trial's standard-normal vector once, from a substream keyed by
(seed, trial index), and every mechanism scales that same vector by its own
sigma (common random numbers).  Consecutive trials form blocks: a block's
vectors are drawn in one call (``rng.standard_normal_rows`` on the seed and
the block's trial keys, which builds no generator per trial, each row
bit-identical to that trial's own draw), and each mechanism scores a whole
block in one array expression whose error, per row, is bit-identical to
scoring that trial alone.  A report is a pure function of its arguments,
and a mechanism's report depends neither on which other mechanisms share
the run nor on the block size.

numpy is imported inside each function that uses it, on first use, not at
module load: ``gaussdp`` imports this module eagerly, and a process that
only calibrates (``calibrate``, ``compare``, ``region``, ``profile``,
``compose``) should not pay numpy's start-up cost.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .calib import (
    Mechanism, NoiseScale, PrivacyBudget, Sensitivity,
    _check_count, _check_range, _half_square_ratio, calibrate,
)
from .rng import _check_seed, generator, standard_normal, standard_normal_rows

if TYPE_CHECKING:
    import numpy as np

# substream indices under the experiment seed: 0 is the dataset, 1+t is trial t
_DATASET_STREAM = 0
_TRIAL_STREAM_BASE = 1

# the most values in one block of stacked trial draws (_shared_trials): 200
# trials of the README's experiments (10 dimensions, 48 cells) fit in one,
# each of a block's scoring temporaries stays within a quarter of a
# megabyte, and the uniforms drawn for it within about half of one
_BLOCK = 1 << 15
# the most trials in one block: each draws at least 64 uniforms and holds
# its derived 128-bit state, and the polar pass makes several temporaries of
# each, which at few dimensions outweigh its values many times over (at one
# dimension and 40,000 trials, the run's traced peak is 3.5 MB with this cap
# and 75 MB without it)
_BLOCK_TRIALS = 1 << 8


@dataclass(eq=False)
class QueryAnswer:
    """A true query output (vector of reals)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("QueryAnswer.values must be a non-empty 1-d vector")

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(eq=False)
class NoisySample:
    """A noisy query output plus the (seed, sigma) that produced it."""

    values: np.ndarray
    seed: int
    sigma: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-mechanism experiment outcome: the noise scale sigma used, and the
    metric, the mean l2 error (mean experiment) or MSE (histogram experiment),
    with its standard error."""

    mechanism: Mechanism
    sigma: float
    trials: int
    metric: float
    metric_stderr: float


def sample_noise(dim: int, sigma: float, seed: int) -> NoisySample:
    """dim independent N(0, sigma^2) draws; sigma = 0 gives the zero vector.

    Identical (dim, sigma, seed) yield bit-identical values.
    """
    import numpy as np

    dim = _check_count("dim", dim)
    sigma = _check_range("sigma", float(sigma), zero=True)
    seed = _check_seed(seed)
    if sigma == 0.0:
        values = np.zeros(dim)
    else:
        values = sigma * standard_normal(dim, generator(seed))
    return NoisySample(values=values, seed=seed, sigma=sigma)


def randomize(answer: QueryAnswer, sigma: NoiseScale, seed: int) -> NoisySample:
    """The Gaussian mechanism: answer.values + sample_noise(dim, sigma, seed)."""
    noise = sample_noise(answer.dim, sigma.sigma, seed)
    return NoisySample(values=answer.values + noise.values, seed=noise.seed, sigma=sigma.sigma)


# ---------------------------------------------------------------------------
# privacy-loss sampling (Monte-Carlo oracle)


def privacy_loss_tails(
    distance: float,
    sigma: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical (Pr[L > eps], Pr[L < -eps]) for the privacy loss
    L ~ N(S^2/(2 sigma^2), S^2/sigma^2) at output distance S.

    distance and epsilon must be finite and >= 0, sigma finite and positive.
    """
    import numpy as np

    distance = _check_range("distance", float(distance), zero=True)
    sigma = _check_range("sigma", float(sigma))
    epsilon = _check_range("epsilon", float(epsilon), zero=True)
    n_samples = _check_count("n_samples", n_samples)
    seed = _check_seed(seed)
    if distance == 0.0:
        return 0.0, 0.0
    mean = _half_square_ratio(distance, sigma)
    sd = distance / sigma
    if mean == math.inf:
        # every loss mean + sd z is +inf, though inf + sd z is NaN at z < 0
        return 1.0, 0.0
    loss = mean + sd * standard_normal(n_samples, generator(seed))
    above = float(np.count_nonzero(loss > epsilon)) / n_samples
    below = float(np.count_nonzero(loss < -epsilon)) / n_samples
    return above, below


def privacy_loss_sample(
    distance: float,
    sigma: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> float:
    """Empirical Pr[|L| > eps]: the pDP violation frequency at distance S."""
    above, below = privacy_loss_tails(distance, sigma, epsilon, n_samples, seed)
    return above + below


# ---------------------------------------------------------------------------
# experiments


def _calibrate_all(
    kinds: Iterable[Mechanism], budget: PrivacyBudget, sens: Sensitivity
) -> tuple[tuple[Mechanism, ...], list[float]]:
    # every sigma up front, so a domain error raises before any other work
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of mechanisms, not a single one")
    kinds = tuple(Mechanism(k) for k in kinds)
    return kinds, [calibrate(k, budget, sens).sigma for k in kinds]


def _shared_trials(
    kinds: tuple[Mechanism, ...],
    sigmas: list[float],
    truth: np.ndarray,
    trials: int,
    seed: int,
    error: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[ExperimentReport, ...]:
    import numpy as np

    # Each trial draws its own standard-normal vector from its own
    # substream, as a single-trial run would; consecutive trials' draws are
    # made together as the rows of a block of at most _BLOCK values and
    # _BLOCK_TRIALS rows (one row if a draw alone is larger), and every
    # sigma scores the whole block in one array expression.  ``error``
    # reduces along the last axis, row by row, so the block size never shows.
    errors = np.empty((len(sigmas), trials))
    rows = max(1, min(_BLOCK // truth.size, _BLOCK_TRIALS))
    with np.errstate(over="ignore", invalid="ignore"):  # _report rejects inf and nan
        for start in range(0, trials, rows):
            stop = min(start + rows, trials)
            keys = range(_TRIAL_STREAM_BASE + start, _TRIAL_STREAM_BASE + stop)
            z = standard_normal_rows(truth.size, seed, keys)
            for i, sigma in enumerate(sigmas):
                errors[i, start:stop] = error(truth + sigma * z, truth)
        return tuple(_report(*entry) for entry in zip(kinds, sigmas, errors))


def _report(kind: Mechanism, sigma: float, errors: np.ndarray) -> ExperimentReport:
    import numpy as np

    trials = errors.size
    stderr = float(np.std(errors, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    metric = float(np.mean(errors))
    if not (math.isfinite(metric) and math.isfinite(stderr)):
        raise ValueError(f"{kind} at sigma={sigma!r}: its error leaves the double range")
    return ExperimentReport(
        mechanism=kind,
        sigma=sigma,
        trials=trials,
        metric=metric,
        metric_stderr=stderr,
    )


def mean_experiment(
    n: int,
    d: int,
    budget: PrivacyBudget,
    kinds: Iterable[Mechanism],
    trials: int,
    seed: int,
    sensitivity: float | None = None,
) -> tuple[ExperimentReport, ...]:
    """Private mean estimation on a synthetic dataset; reports the l2 error
    of each mechanism in ``kinds``, in that order.

    The dataset is n points x_i = x_0 + xi_i with standard-Gaussian center
    coordinates and xi_i uniform on [-1/2, 1/2]^d, fixed per seed; noise is
    resampled each trial and shared by all mechanisms.  Bounded (replace-one)
    neighboring is assumed, with default sensitivity sqrt(d)/n (points lie in
    an l-infinity ball of radius 1), overridable via ``sensitivity``.
    """
    import numpy as np

    n = _check_count("n", n)
    d = _check_count("d", d)
    trials = _check_count("trials", trials)
    delta_q = math.sqrt(d) / n if sensitivity is None else float(sensitivity)
    kinds, sigmas = _calibrate_all(kinds, budget, Sensitivity(delta_q))

    # dataset fixed per seed; noise resampled per trial
    data_gen = generator(seed, _DATASET_STREAM)
    center = standard_normal(d, data_gen)
    points = center + (data_gen.random((n, d)) - 0.5)

    def l2_error(noisy: np.ndarray, truth: np.ndarray) -> np.ndarray:
        # sqrt(row . row) per row as a stack of (1, d) @ (d, 1) products:
        # numpy runs each as the BLAS dot that np.linalg.norm of one row
        # uses, so the error is bit-identical to a row's norm, which
        # norm(axis=-1) and einsum, summing in another order, are not
        diff = noisy - truth
        return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])

    return _shared_trials(kinds, sigmas, points.mean(axis=0), trials, seed, l2_error)


def histogram_experiment(
    rows: Sequence[Sequence[str]],
    budget: PrivacyBudget,
    kinds: Iterable[Mechanism],
    trials: int,
    seed: int,
) -> tuple[ExperimentReport, ...]:
    """Private histogram over the cross-product of observed categorical
    values; reports the MSE over cells of each mechanism in ``kinds``, in
    that order.

    Unbounded (add/remove) neighboring, so the count query has sensitivity 1.
    Cells that occur in no record still exist (and receive noise): the domain
    is the full cross-product of the per-column observed value sets.
    """
    import numpy as np

    trials = _check_count("trials", trials)
    kinds, sigmas = _calibrate_all(kinds, budget, Sensitivity(1.0))
    counts = histogram_counts(rows)
    return _shared_trials(
        kinds, sigmas, counts, trials, seed,
        lambda noisy, truth: np.mean((noisy - truth) ** 2, axis=-1),
    )


_MAX_HISTOGRAM_CELLS = 10_000_000


def histogram_counts(rows: Sequence[Sequence[str]]) -> np.ndarray:
    """Count vector over the cross-product of per-column observed values,
    in lexicographic cell order.

    Whole rows are counted in one pass; the domains and the cell of each
    distinct row come from the distinct rows alone.  Values are compared as
    their ``str`` and must be hashable.
    """
    import numpy as np

    tally: dict[tuple[str, ...], int] = {}
    for row, n in Counter(map(tuple, rows)).items():
        key = tuple(map(str, row))
        tally[key] = tally.get(key, 0) + n
    if not tally:
        raise ValueError("histogram requires at least one record")
    width = len(next(iter(tally)))
    if width == 0 or any(len(row) != width for row in tally):
        raise ValueError("records must all have the same positive number of columns")
    domains = [sorted({row[j] for row in tally}) for j in range(width)]
    n_cells = math.prod(len(d) for d in domains)
    if n_cells > _MAX_HISTOGRAM_CELLS:
        raise ValueError(
            f"histogram domain has {n_cells} cells (cross-product of observed "
            f"values); limit is {_MAX_HISTOGRAM_CELLS}"
        )
    positions = [{value: i for i, value in enumerate(d)} for d in domains]
    counts = np.zeros(n_cells)
    for row, n in tally.items():
        cell = 0
        for value, position, domain in zip(row, positions, domains):
            cell = cell * len(domain) + position[value]
        counts[cell] = n
    return counts


# ---------------------------------------------------------------------------
# categorical record streams


def read_categorical_csv(path: str | Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """Read a UTF-8, comma-delimited, header-row CSV of categorical strings.

    Returns (header, rows); raises ValueError on empty, ragged or unparsable
    input, naming the first ragged record by its number (the header is 1).

    The result is that of ``csv.reader`` over the file, parsed faster where
    records repeat.  Without a ``"`` no field can span lines, so each line
    (ended by ``\\n``, ``\\r\\n`` or a lone ``\\r``) is one record: each
    distinct line is parsed once, and equal records share one tuple.  Every
    line is parsed instead where any line holds a ``"``, or where more than
    half the lines are distinct, since there dedup only adds hashing.  The
    whole file is parsed before any record is checked, so a field over
    ``csv.field_size_limit()`` is the error raised even after a ragged record.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    # if the first half + 1 lines are all distinct, more than half are, so a
    # file of distinct records hashes only those
    half = len(lines) // 2
    distinct = dict.fromkeys(lines[: half + 1])
    if len(distinct) <= half:
        distinct |= dict.fromkeys(lines[half + 1 :])
    try:
        if len(distinct) > half or any('"' in line for line in distinct):
            records = list(map(tuple, csv.reader(lines)))
            checked = records
        else:
            parsed = dict(zip(distinct, map(tuple, csv.reader(distinct)), strict=True))
            records = list(map(parsed.__getitem__, lines))
            checked = parsed.values()
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: empty CSV (missing header row)")
    header, rows = list(records[0]), records[1:]
    if set(map(len, checked)) != {len(header)}:
        lineno, row = next(
            (i, row) for i, row in enumerate(rows, start=2) if len(row) != len(header)
        )
        raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    if not rows:
        raise ValueError(f"{path}: no records after the header row")
    return header, rows


# Census-like categorical columns for the synthetic histogram input.
_SYNTH_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("workclass", ("private", "government", "self-employed")),
    ("education", ("hs", "college", "graduate", "none")),
    ("marital-status", ("married", "single")),
    ("sex", ("female", "male")),
)


def synthetic_census_rows(
    n_rows: int, seed: int
) -> tuple[list[str], list[tuple[str, ...]]]:
    """Generate n_rows census-like categorical records (seeded, skewed
    per-column value frequencies)."""
    import numpy as np

    n_rows = _check_count("n_rows", n_rows)
    gen = generator(seed)
    header = [name for name, _ in _SYNTH_COLUMNS]
    columns = []
    for _, values in _SYNTH_COLUMNS:
        # geometric-ish weights make some cells common and some rare
        weights = np.array([2.0 ** (-j) for j in range(len(values))])
        weights /= weights.sum()
        draws = gen.choice(len(values), size=n_rows, p=weights)
        columns.append([values[i] for i in draws])
    return header, list(zip(*columns))


def write_categorical_csv(
    path: str | Path, header: Iterable[str], rows: Iterable[Sequence[str]]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        writer.writerows(rows)

"""Executable Gaussian mechanisms and the desk-scale experiments.

Seeded noise sampling, the synthetic mean-estimation and categorical
histogram experiments, and a Monte-Carlo sampler of the privacy-loss
random variable (the empirical oracle for the analytic profiles).

An experiment runs a list of mechanisms at once: it builds its data once and
draws each trial's standard-normal vector once, from a substream keyed by
(seed, trial index), and every mechanism scales that same vector by its own
sigma (common random numbers).  Consecutive trials form blocks: a block's
vectors come from one ``rng.standard_normal_rows`` call on the seed and its
trial keys, which builds no generator, each row bit-identical to that
trial's own draw.  Each mechanism scores a whole block in one array
expression whose error, per row, is bit-identical to scoring that trial
alone.  A report is a pure function of its arguments, and a mechanism's
report depends neither on which other mechanisms share the run nor on the
block size.

A categorical CSV is read as bytes and its lines counted, each distinct
line decoded and parsed once: ``read_categorical_counts`` gives the
histogram experiment its records' counts without a list of records.

numpy is imported inside each function that uses it, on first use, not at
module load: ``gaussdp`` imports this module eagerly, and a process that
only calibrates (``calibrate``, ``compare``, ``region``, ``profile``,
``compose``) should not pay numpy's start-up cost.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .calib import (
    Mechanism, NoiseScale, PrivacyBudget, Sensitivity,
    _check_count, _check_range, _half_square_ratio, _shown, calibrate,
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
# megabyte, and the uniforms drawn for it within about half of one.  A trial
# counts as at least 64 values, since it draws at least 64 uniforms (32
# pairs), which at few dimensions outweigh its values
_BLOCK = 1 << 15


@dataclass(eq=False)
class QueryAnswer:
    """A true query output (a non-empty vector of finite reals)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        try:
            self.values = np.asarray(self.values, dtype=np.float64)
        except OverflowError:  # an int past the double range, named below as given
            self.values = np.asarray(self.values, dtype=object)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("QueryAnswer.values must be a non-empty 1-d vector")
        if self.values.dtype == object or not np.isfinite(self.values).all():
            # the first entry that is nan, infinite or past the double range
            bad = next(v for v in self.values.tolist() if not abs(v) <= sys.float_info.max)
            raise ValueError(f"QueryAnswer.values must be finite, got {_shown(bad)}")

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
    sigma = float(_check_range("sigma", sigma, zero=True))
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

    distance = float(_check_range("distance", distance, zero=True))
    sigma = float(_check_range("sigma", sigma))
    epsilon = float(_check_range("epsilon", epsilon, zero=True))
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
    # made together as the rows of a block of at most _BLOCK values, a row
    # counting as at least 64 (one row if a draw alone is larger), and every
    # sigma scores the whole block in one array expression.  ``error``
    # reduces along the last axis, row by row, so the block size never shows.
    errors = np.empty((len(sigmas), trials))
    rows = max(1, _BLOCK // max(truth.size, 64))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are rejected below
        for start in range(0, trials, rows):
            stop = min(start + rows, trials)
            keys = range(_TRIAL_STREAM_BASE + start, _TRIAL_STREAM_BASE + stop)
            z = standard_normal_rows(truth.size, seed, keys)
            for i, sigma in enumerate(sigmas):
                errors[i, start:stop] = error(truth + sigma * z, truth)
        # every mechanism's row reduced at once, each bit-identical to
        # reducing that row alone; ddof=1 over one trial would warn
        metrics = errors.mean(axis=1)
        stderrs = np.zeros_like(metrics)
        if trials > 1:
            stderrs = errors.std(axis=1, ddof=1) / math.sqrt(trials)
    reports = []
    for kind, sigma, metric, stderr in zip(kinds, sigmas, metrics.tolist(), stderrs.tolist()):
        if not (math.isfinite(metric) and math.isfinite(stderr)):
            raise ValueError(f"{kind} at sigma={sigma!r}: its error leaves the double range")
        reports.append(ExperimentReport(kind, sigma, trials, metric, stderr))
    return tuple(reports)


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
    if sensitivity is None:
        delta_q = math.sqrt(d) / n
    else:
        delta_q = float(_check_range("l2 sensitivity", sensitivity, zero=True))
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
    rows: Sequence[Sequence[str]] | Mapping[Sequence[str], int],
    budget: PrivacyBudget,
    kinds: Iterable[Mechanism],
    trials: int,
    seed: int,
) -> tuple[ExperimentReport, ...]:
    """Private histogram over the cross-product of observed categorical
    values; reports the MSE over cells of each mechanism in ``kinds``, in
    that order.  ``rows`` is the records or their counts, as for
    ``histogram_counts``; both give the same reports.

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


def histogram_counts(rows: Sequence[Sequence[str]] | Mapping[Sequence[str], int]) -> np.ndarray:
    """Count vector over the cross-product of per-column observed values,
    in lexicographic cell order.

    ``rows`` is the records, or a mapping from record to its count (each a
    count >= 1), as ``read_categorical_counts`` returns.  Whole rows are
    counted in one pass; the domains and the cell of each distinct row come
    from the distinct rows alone.  Values are compared as their ``str`` and
    must be hashable.
    """
    import numpy as np

    pairs = rows.items() if isinstance(rows, Mapping) else Counter(map(tuple, rows)).items()
    tally: dict[tuple[str, ...], int] = {}
    for row, n in pairs:
        if type(n) is not int or n < 1:  # a Counter's always pass; a given mapping's may not
            n = _check_count(f"count of {row!r}", n)
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
        try:
            counts[cell] = n
        except OverflowError:  # an int count past the double range
            _check_count(f"count of {row!r}", n)
            raise
    return counts


# ---------------------------------------------------------------------------
# categorical record streams


def read_categorical_counts(path: str | Path) -> tuple[list[str], dict[tuple[str, ...], int]]:
    """Read a UTF-8, comma-delimited, header-row CSV of categorical strings.

    Returns the header and ``{record: count}``, ``Counter(rows)`` of the
    rows ``csv.reader`` over the file reads, in order of first occurrence,
    built without a list of rows.  The file is read once, as bytes, and
    split where ``csv.reader`` over a ``newline=""`` file ends a line: at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``.  The lines are counted, and each
    distinct line is decoded once.  Without a ``"`` no field can span lines,
    so each line is one record and each distinct line is parsed once; a file
    that holds a ``"`` is parsed whole, and its records stand in for its
    lines.  Raises ValueError on empty, ragged, non-UTF-8 or unparsable
    input: a line that is not UTF-8 first, then a field over
    ``csv.field_size_limit()``, then the first ragged record, by its number
    (the header is 1).
    """
    data = Path(path).read_bytes()
    quoted = b'"' in data
    # a quoted field keeps the line breaks inside it, so csv.reader gets them
    lines = data.splitlines(keepends=quoted)
    counts = Counter(lines)
    try:
        texts = [line.decode("utf-8") for line in counts]
    except UnicodeDecodeError as exc:
        # counts holds lines by first occurrence, so this is the first bad
        # line; no line-end byte occurs inside a multi-byte character
        raise ValueError(
            f"{path}:{lines.index(exc.object) + 1}: not valid UTF-8 (byte "
            f"{exc.object[exc.start]:#04x} at column {exc.start + 1}: {exc.reason})"
        ) from None
    try:
        if quoted:
            lines = list(map(tuple, csv.reader(map(dict(zip(counts, texts)).get, lines))))
            counts = Counter(lines)
            records = dict(zip(counts, counts))
        else:
            records = dict(zip(counts, map(tuple, csv.reader(texts)), strict=True))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path}: empty CSV (missing header row)")
    width = len(records[lines[0]])
    if set(map(len, records.values())) != {width}:
        lineno, record = next(
            (i, record) for i, record in enumerate(map(records.get, lines), start=1)
            if len(record) != width
        )
        raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(record)}")
    if len(lines) == 1:
        raise ValueError(f"{path}: no records after the header row")
    counts[lines[0]] -= 1  # the header's own line
    # a quote-free line is its record's fields joined by commas, so two
    # distinct lines never parse to one record and no counts merge
    return list(records[lines[0]]), {records[line]: n for line, n in counts.items() if n}


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

"""Synthetic diagnostic meta-analyses from a bivariate logit model.

Study-level true accuracies are drawn as bivariate-normal pairs
(logit(Sen), logit(FPR)); each study's 2x2 table is then realized with
binomial measurement error. Publication bias is injected either by a
*selection* step (simulate k + l studies, drop the l with the lowest
Youden index) or by a *mixture* (one third of studies drawn from a
component shifted toward higher accuracy).

All randomness flows through explicit numpy Generators. The harness
derives one counter-based (Philox) stream per (master seed, condition
index, replicate index), so results never depend on execution order or
parallelism; within a replicate the draw order is fixed: sample sizes,
then logit pairs (base before shifted for mixtures), then the mixture
shuffle, then the binomial realizations, study by study, each study's
true positives before its false positives. ``generate_block`` realizes
many replicates at once and keeps that order within each replicate's
stream, so a replicate's tables do not depend on the block it is in.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import model
from .errors import GridFormatError, NonPSDCovariance
from .model import MIN_STUDIES, MetaDataset, round_half_up

__all__ = [
    "BiasMechanism",
    "BiasSpec",
    "BivariateParams",
    "GenerationTrace",
    "SimCondition",
    "default_grid",
    "generate_block",
    "generate_meta_analysis",
    "generate_meta_analysis_traced",
    "load_grid",
    "replicate_rng",
]

PSD_TOLERANCE = 1e-12


@dataclass(frozen=True, slots=True)
class BivariateParams:
    """Mean and covariance of (logit Sen, logit FPR) across studies."""

    mu: tuple[float, float]
    sigma_a2: float = 0.0
    sigma_ab: float = 0.0
    sigma_b2: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", (float(self.mu[0]), float(self.mu[1])))
        if self.sigma_a2 < 0 or self.sigma_b2 < 0:
            raise NonPSDCovariance("negative variance on the diagonal")
        if self.sigma_a2 * self.sigma_b2 - self.sigma_ab**2 < -PSD_TOLERANCE:
            raise NonPSDCovariance("covariance matrix has a negative determinant")

    @classmethod
    def from_matrix(cls, mu, sigma) -> "BivariateParams":
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (2, 2):
            raise NonPSDCovariance(f"covariance must be 2x2, got shape {sigma.shape}")
        if not np.isclose(sigma[0, 1], sigma[1, 0], rtol=0.0, atol=1e-12):
            raise NonPSDCovariance("covariance matrix is not symmetric")
        return cls(
            mu=(float(mu[0]), float(mu[1])),
            sigma_a2=float(sigma[0, 0]),
            sigma_ab=float(sigma[0, 1]),
            sigma_b2=float(sigma[1, 1]),
        )

    @property
    def is_fixed_effects(self) -> bool:
        return self.sigma_a2 == 0.0 and self.sigma_ab == 0.0 and self.sigma_b2 == 0.0

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.sigma_a2, self.sigma_ab], [self.sigma_ab, self.sigma_b2]]
        )

    def shifted(self, eta: tuple[float, float]) -> "BivariateParams":
        return replace(self, mu=(self.mu[0] + eta[0], self.mu[1] + eta[1]))

    def sqrt_matrix(self) -> np.ndarray:
        """Symmetric square root of the covariance (2x2 closed form)."""
        m = self.matrix()
        det = max(self.sigma_a2 * self.sigma_b2 - self.sigma_ab**2, 0.0)
        s = math.sqrt(det)
        trace = self.sigma_a2 + self.sigma_b2
        denom = math.sqrt(trace + 2.0 * s)
        if denom == 0.0:  # zero matrix
            return np.zeros((2, 2))
        return (m + s * np.eye(2)) / denom


class BiasMechanism(enum.Enum):
    NONE = "none"
    SELECTION = "selection"
    MIXTURE = "mixture"


@dataclass(frozen=True, slots=True)
class BiasSpec:
    """How (and how strongly) publication bias is injected."""

    mechanism: BiasMechanism = BiasMechanism.NONE
    selection_fraction: float = 0.0
    eta: tuple[float, float] = (0.0, 0.0)
    mixture_fraction: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", (float(self.eta[0]), float(self.eta[1])))
        if not 0.0 <= self.selection_fraction < 1.0:
            raise ValueError(f"selection_fraction out of [0, 1): {self.selection_fraction}")
        if not 0.0 <= self.mixture_fraction <= 1.0:
            raise ValueError(f"mixture_fraction out of [0, 1]: {self.mixture_fraction}")
        if self.mechanism is BiasMechanism.MIXTURE and (
            self.eta[0] < 0.0 or self.eta[1] > 0.0
        ):
            raise ValueError("mixture shift must point toward higher accuracy (eta_a >= 0 >= eta_b)")

    @property
    def strength(self) -> float:
        """Scalar bias strength for reporting: l-fraction or eta_a."""
        if self.mechanism is BiasMechanism.SELECTION:
            return self.selection_fraction
        if self.mechanism is BiasMechanism.MIXTURE:
            return self.eta[0]
        return 0.0


NO_BIAS = BiasSpec()

MAX_K = 10_000  # bounds the memory of a condition's replicate block (see README)


@functools.cache
def _logit_constants(params: BivariateParams, eta: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only logit means of the base and shifted studies and covariance root, derived once per process."""
    with np.errstate(all="ignore"):  # the root of an infinite variance is nan
        root = params.sqrt_matrix()
    # the cache matches by ==, under which -0.0 == 0.0, so + 0.0 stores each zero as 0.0 (and keeps other values)
    constants = np.array(params.mu) + 0.0, np.array(params.shifted(eta).mu) + 0.0, root + 0.0
    for constant in constants:
        constant.flags.writeable = False
    return constants


@dataclass(frozen=True, slots=True)
class SimCondition:
    """One cell of the simulation grid."""

    params: BivariateParams
    k: int
    pi: float
    n_min: int = 50
    n_max: int = 1000
    bias: BiasSpec = NO_BIAS

    def __post_init__(self) -> None:
        for name in ("k", "n_min", "n_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not MIN_STUDIES <= self.k <= MAX_K:
            raise ValueError(f"k must be in [{MIN_STUDIES}, {MAX_K}], got {self.k}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"prevalence must be in (0, 1), got {self.pi}")
        # the sizes are drawn as int64
        if not 1 <= self.n_min <= self.n_max <= np.iinfo(np.int64).max:
            raise ValueError(f"bad sample-size range [{self.n_min}, {self.n_max}]")
        # n1 and n2 never shrink as N grows, so n_min is the binding size
        n1 = round_half_up(self.pi * self.n_min)
        if n1 in (0, self.n_min):
            raise ValueError(
                f"n_min = {self.n_min} at prevalence {self.pi} leaves a group empty (n1 = {n1})"
            )
        # a mean or root that is not finite would reach the binomial draws as a nan probability
        mean, shifted, root = _logit_constants(self.params, self.bias.eta)
        if not np.isfinite((*mean, *shifted, *root.flat)).all():
            raise ValueError(
                f"logit means {tuple(mean.tolist())} and {tuple(shifted.tolist())} "
                f"and covariance root {root.tolist()} must be finite"
            )


@dataclass(frozen=True, slots=True)
class GenerationTrace:
    """Provenance of one generated meta-analysis (for tests/diagnostics)."""

    origins: tuple[str, ...]  # per kept study: "base" or "shifted"
    kept_youden: tuple[float, ...]
    dropped_youden: tuple[float, ...]
    generated: int


def replicate_rng(master_seed: int, condition_index: int, replicate_index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, independent of run order."""
    seq = np.random.SeedSequence((master_seed, condition_index, replicate_index))
    return np.random.Generator(np.random.Philox(seq))


def _youden(tables: np.ndarray) -> np.ndarray:
    """Observed Youden index x/n1 + z/n2 - 1 of each (x, w, y, z) row along the last axis."""
    x, w, y, z = np.moveaxis(tables, -1, 0)
    return x / (x + w) + z / (y + z) - 1.0


def _realize_block(
    condition: SimCondition, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every realized table of one replicate per stream, the shifted flags and the kept mask.

    Each replicate draws from its own stream in the documented order:
    sizes, the normals of every logit pair in one call (base pairs, then
    a mixture's shifted pairs; fixed effects draw none, so theirs stay 0
    and each pair mean + z @ root is its mean), the slot permutation for
    a mixture, then one binomial call for all its tables, whose C order
    is each study's x, then its y. Only those calls run per replicate;
    the rest is arithmetic on (reps, studies) arrays, elementwise or
    along the last axis, so every replicate's numbers are those it would
    get alone. Selection realizes k + l tables and keeps the k with the
    highest observed Youden indices, in draw order; a mixture realizes
    its base and shifted logit pairs into randomly permuted slots.
    Returns the (reps, k + l, 4) int64 (x, w, y, z) tables, and the
    (reps, k + l) shifted flags and kept mask.
    """
    bias = condition.bias
    k = condition.k
    mixture = bias.mechanism is BiasMechanism.MIXTURE
    n_drop = n_shifted = 0
    if bias.mechanism is BiasMechanism.SELECTION:
        n_drop = round_half_up(bias.selection_fraction * k)
    elif mixture:
        n_shifted = round_half_up(bias.mixture_fraction * k)
    total = k + n_drop
    reps = len(rngs)
    fixed = condition.params.is_fixed_effects  # no normals drawn: they stay 0 and every pair is its mean
    row = np.arange(reps)[:, None]
    totals = np.empty((reps, total), dtype=np.int64)
    normals = np.zeros((reps, total, 2))
    sources = np.empty((reps, total), dtype=np.int64) if mixture else None
    for r, rng in enumerate(rngs):
        totals[r] = rng.integers(condition.n_min, condition.n_max + 1, size=total)
        if not fixed:
            rng.standard_normal(out=normals[r])
        if mixture:
            sources[r] = rng.permutation(k)
    # each pair is its mean (a mixture's shifted slots: the shifted mean) + z @ root for its standard normals z
    mean, shifted_mean, root = _logit_constants(condition.params, bias.eta)
    offsets = normals @ root
    pairs = mean + offsets
    shifted = np.zeros((reps, total), dtype=bool)
    if mixture:
        n_base = total - n_shifted
        pairs[:, n_base:] = shifted_mean + offsets[:, n_base:]
        pairs = pairs[row, sources]
        shifted = sources >= n_base
    sizes = np.empty((reps, total, 2), dtype=np.int64)  # (n1, n2)
    sizes[..., 0] = np.floor(condition.pi * totals + 0.5)  # half-up
    np.subtract(totals, sizes[..., 0], out=sizes[..., 1])
    probabilities = expit(pairs)  # (Sen, FPR)
    tables = np.empty((reps, total, 4), dtype=np.int64)
    positives = tables[..., 0::2]  # (x, y)
    for r, rng in enumerate(rngs):
        positives[r] = rng.binomial(sizes[r], probabilities[r])
    np.subtract(sizes, positives, out=tables[..., 1::2])  # (w, z)
    kept = np.ones((reps, total), dtype=bool)
    if n_drop:
        # drop the n_drop lowest observed Youden indices; ties drop the
        # smaller study, then the earlier draw (lexsort is stable)
        order = np.lexsort((totals, _youden(tables)), axis=-1)
        kept[row, order[:, :n_drop]] = False
    return tables, shifted, kept


def generate_block(condition: SimCondition, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One meta-analysis per stream, as a (reps, k, 4) int64 table array in draw order.

    Replicate r is the dataset ``generate_meta_analysis(condition,
    rngs[r])`` returns. The block's tables are checked once, together.
    """
    block, _, kept = _realize_block(condition, rngs)
    if block.shape[1] > condition.k:  # selection realized the dropped studies too
        block = block[kept].reshape(len(rngs), condition.k, 4)
    error = model._first_invalid(block.reshape(-1, 4))
    if error is not None:
        raise error
    return block


def generate_meta_analysis(condition: SimCondition, rng: np.random.Generator) -> MetaDataset:
    """Generate one meta-analysis under the condition's bias mechanism: a block of one."""
    tables, _, kept = _realize_block(condition, [rng])
    return MetaDataset(tables[0][kept[0]])


def generate_meta_analysis_traced(
    condition: SimCondition, rng: np.random.Generator
) -> tuple[MetaDataset, GenerationTrace]:
    """Generate one meta-analysis and report how each study arose."""
    tables, shifted, kept = _realize_block(condition, [rng])
    tables, shifted, kept = tables[0], shifted[0], kept[0]
    youden = _youden(tables)
    trace = GenerationTrace(
        origins=tuple("shifted" if s else "base" for s in shifted[kept].tolist()),
        kept_youden=tuple(youden[kept].tolist()),
        dropped_youden=tuple(youden[~kept].tolist()),
        generated=len(tables),
    )
    return MetaDataset(tables[kept]), trace


# ---------------------------------------------------------------------------
# the condition grid
# ---------------------------------------------------------------------------

GRID_MU = ((0.0, 0.0), (1.0, -1.0), (2.0, -2.0), (2.0, -1.0))
GRID_SIGMA = (
    (0.0, 0.0, 0.0),  # fixed effects
    (0.5, 0.3, 0.5),  # small random effects
    (1.0, 0.5, 1.0),  # large random effects
)
GRID_K = (10, 30)
GRID_PI = (0.5, 0.2)
GRID_BIAS = (
    BiasSpec(),
    BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.2),
    BiasSpec(BiasMechanism.SELECTION, selection_fraction=0.4),
    BiasSpec(BiasMechanism.MIXTURE, eta=(0.75, -0.75)),
    BiasSpec(BiasMechanism.MIXTURE, eta=(1.25, -1.25)),
)
GRID_N_RANGE = (50, 1000)


def _product_grid(mus, sigmas, ks, pis, biases, n_min: int, n_max: int) -> list[SimCondition]:
    """The Cartesian product of the axes, mu outermost and bias innermost."""
    grid = []
    for mu, sigma in itertools.product(mus, sigmas):
        params = BivariateParams.from_matrix(mu, sigma)
        grid += [
            SimCondition(params, k, pi, n_min, n_max, bias)
            for k, pi, bias in itertools.product(ks, pis, biases)
        ]
    return grid


def default_grid() -> list[SimCondition]:
    """The full 4 x 3 x 2 x 2 x 5 = 240 condition grid."""
    sigmas = [((a2, ab), (ab, b2)) for a2, ab, b2 in GRID_SIGMA]
    return _product_grid(GRID_MU, sigmas, GRID_K, GRID_PI, GRID_BIAS, *GRID_N_RANGE)


def _number(value, kind: type = float):
    """A JSON number as a float, or as an int when it is whole; a string or a bool is an error, not converted."""
    whole = kind is int
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (whole and int(value) != value):
        raise ValueError(f"expected {'an integer' if whole else 'a number'}, got {value!r}")
    return kind(value)


def _pair(value) -> tuple[float, float]:
    """A [a, b] pair of numbers; a list of any other length is an error, not cut short."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected a pair of numbers, got {value!r}")
    return _number(value[0]), _number(value[1])


def _check_keys(entry: dict, accepted: tuple[str, ...], where: str) -> None:
    """Raise ``GridFormatError`` naming the first key of ``entry`` that is not ``accepted``."""
    for key in entry:
        if key not in accepted:
            raise GridFormatError(f"unknown key {key!r} in {where}; accepted: {', '.join(accepted)}")


def _parse_bias(entry) -> BiasSpec:
    """One bias entry: a ``mechanism`` (none if left out) and that mechanism's own fields, no other key."""
    if not isinstance(entry, dict):
        raise GridFormatError(f"a bias entry must be a JSON object, got {entry!r}")
    try:
        mechanism = BiasMechanism(entry.get("mechanism", "none"))
    except ValueError:
        raise GridFormatError(f"unknown bias mechanism {entry['mechanism']!r}") from None
    fields = {BiasMechanism.SELECTION: ("fraction",), BiasMechanism.MIXTURE: ("eta", "fraction")}.get(mechanism, ())
    _check_keys(entry, ("mechanism", *fields), f"a {mechanism.value} bias entry")
    if mechanism is BiasMechanism.SELECTION:
        return BiasSpec(mechanism, selection_fraction=_number(entry["fraction"]))
    if mechanism is BiasMechanism.MIXTURE:
        fraction = _number(entry.get("fraction", 1.0 / 3.0))
        return BiasSpec(mechanism, eta=_pair(entry["eta"]), mixture_fraction=fraction)
    return BiasSpec()


def load_grid(path: str | Path) -> list[SimCondition]:
    """Read a grid definition from JSON; the Cartesian product of its axes.

    Expected keys: ``mu`` (list of [mu_a, mu_b]), ``sigma`` (list of 2x2
    matrices), ``k``, ``pi`` (lists), ``bias`` (list of objects with a
    ``mechanism`` plus that mechanism's fields: ``fraction`` for
    selection, ``eta`` and an optional ``fraction`` for mixture) and
    optional ``n_min`` / ``n_max``. Any other key, a ``mu`` or ``eta``
    that is not a pair, and a number written as a string or a bool are
    bad grids. ``k``, ``n_min`` and ``n_max`` must be integers (10 or
    10.0, not 10.9).
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GridFormatError(f"grid file is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise GridFormatError(f"a grid must be a JSON object, got {type(spec).__name__}")
    _check_keys(spec, ("mu", "sigma", "k", "pi", "bias", "n_min", "n_max"), "the grid")
    try:
        mus = [_pair(m) for m in spec["mu"]]
        sigmas = [np.asarray([[_number(v) for v in row] for row in s]) for s in spec["sigma"]]
        ks = [_number(k, int) for k in spec["k"]]
        pis = [_number(p) for p in spec["pi"]]
        biases = [_parse_bias(b) for b in spec["bias"]]
        n_min = _number(spec.get("n_min", GRID_N_RANGE[0]), int)
        n_max = _number(spec.get("n_max", GRID_N_RANGE[1]), int)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise GridFormatError(f"bad grid definition: {exc!r}") from None
    try:
        grid = _product_grid(mus, sigmas, ks, pis, biases, n_min, n_max)
    except (NonPSDCovariance, ValueError) as exc:
        raise GridFormatError(f"bad grid values: {exc}") from None
    if not grid:
        raise GridFormatError("grid definition produces no conditions")
    return grid

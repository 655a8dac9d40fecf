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
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit, logit

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
    "logit",
    "replicate_rng",
    "sample_logit_pairs",
    "sample_sizes",
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
        if self.k < MIN_STUDIES:
            raise ValueError(f"k must be at least {MIN_STUDIES}, got {self.k}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"prevalence must be in (0, 1), got {self.pi}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad sample-size range [{self.n_min}, {self.n_max}]")
        # n1 and n2 never shrink as N grows, so n_min is the binding size
        n1 = round_half_up(self.pi * self.n_min)
        if n1 in (0, self.n_min):
            raise ValueError(
                f"n_min = {self.n_min} at prevalence {self.pi} leaves a group empty (n1 = {n1})"
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


def sample_logit_pairs(
    params: BivariateParams, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` iid draws from the bivariate normal, shape (count, 2).

    A zero covariance matrix short-circuits to exact copies of the mean
    (no degenerate factorization, no rng consumption).
    """
    normals = np.empty((count, 2)) if params.is_fixed_effects else rng.standard_normal((count, 2))
    return _logit_pairs(params, normals)


def _logit_pairs(params: BivariateParams, normals: np.ndarray) -> np.ndarray:
    """mu + z @ sqrt(Sigma) for each standard normal pair z on the last axis.

    Under fixed effects every pair is mu itself.
    """
    mu = np.array(params.mu)
    if params.is_fixed_effects:
        return np.broadcast_to(mu, normals.shape)
    return mu + normals @ params.sqrt_matrix()


def sample_sizes(
    condition: SimCondition, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Total sizes uniform on [n_min, n_max], split by prevalence.

    Returns a (count, 2) int64 array of (n1, n2) rows: n1 = round(pi * N)
    with half-up rounding, n2 the remainder.
    """
    return _split_sizes(condition, rng.integers(condition.n_min, condition.n_max + 1, size=count))


def _split_sizes(condition: SimCondition, totals: np.ndarray) -> np.ndarray:
    """(n1, n2) on a new last axis for each total size."""
    n1 = np.floor(condition.pi * totals + 0.5).astype(np.int64)
    return np.stack((n1, totals - n1), axis=-1)


def _youden(tables: np.ndarray) -> np.ndarray:
    """Observed Youden index x/n1 + z/n2 - 1 of each (x, w, y, z) row along the last axis."""
    x, w, y, z = np.moveaxis(tables, -1, 0)
    return x / (x + w) + z / (y + z) - 1.0


def _realize_block(
    condition: SimCondition, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every realized table of one replicate per stream, the shifted flags and the kept mask.

    Each replicate draws from its own stream in the documented order:
    sizes, base logit pairs, shifted pairs and the slot permutation for
    a mixture, then one binomial call for all its tables, whose C order
    is each study's x, then its y. Only those calls run per replicate;
    the rest is arithmetic on (reps, studies) arrays, elementwise or
    along the last axis, so every replicate's numbers are those it
    would get alone. Selection realizes k + l tables and keeps the k
    with the highest observed Youden indices, in draw order; a mixture
    realizes its base and shifted logit pairs into randomly permuted
    slots.
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
    params = condition.params
    totals = np.empty((reps, total), dtype=np.int64)
    normals = np.empty((reps, total, 2))
    sources = np.tile(np.arange(total), (reps, 1))
    n_base = total - n_shifted
    for r, rng in enumerate(rngs):
        totals[r] = rng.integers(condition.n_min, condition.n_max + 1, size=total)
        if not params.is_fixed_effects:  # fixed effects draw no normals
            normals[r, :n_base] = rng.standard_normal((n_base, 2))
            if mixture:
                normals[r, n_base:] = rng.standard_normal((n_shifted, 2))
        if mixture:
            sources[r] = rng.permutation(k)
    pairs = _logit_pairs(params, normals)
    if mixture:
        shifted = _logit_pairs(params.shifted(bias.eta), normals[:, n_base:])
        pairs = np.concatenate((pairs[:, :n_base], shifted), axis=1)
        pairs = np.take_along_axis(pairs, sources[:, :, None], axis=1)
    sizes = _split_sizes(condition, totals)
    probabilities = expit(pairs)  # (Sen, FPR)
    positives = np.empty_like(sizes)
    for r, rng in enumerate(rngs):
        positives[r] = rng.binomial(sizes[r], probabilities[r])  # (x, y)
    x, y = positives[..., 0], positives[..., 1]
    tables = np.stack((x, sizes[..., 0] - x, y, sizes[..., 1] - y), axis=-1)
    kept = np.ones((reps, total), dtype=bool)
    if n_drop:
        # drop the n_drop lowest observed Youden indices; ties drop the
        # smaller study, then the earlier draw (lexsort is stable)
        order = np.lexsort((totals, _youden(tables)), axis=-1)
        np.put_along_axis(kept, order[:, :n_drop], False, axis=-1)
    return tables, sources >= n_base, kept


def generate_block(condition: SimCondition, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One meta-analysis per stream, as a (reps, k, 4) int64 table array in draw order.

    Replicate r is the dataset ``generate_meta_analysis(condition,
    rngs[r])`` returns. The block's tables are checked once, together.
    """
    tables, _, kept = _realize_block(condition, rngs)
    block = tables[kept].reshape(len(rngs), condition.k, 4)
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


def _parse_bias(entry: dict) -> BiasSpec:
    mechanism = entry.get("mechanism", "none")
    if mechanism == "none":
        return BiasSpec()
    if mechanism == "selection":
        return BiasSpec(
            BiasMechanism.SELECTION,
            selection_fraction=float(entry["fraction"]),
        )
    if mechanism == "mixture":
        eta = entry["eta"]
        return BiasSpec(
            BiasMechanism.MIXTURE,
            eta=(float(eta[0]), float(eta[1])),
            mixture_fraction=float(entry.get("fraction", 1.0 / 3.0)),
        )
    raise GridFormatError(f"unknown bias mechanism {mechanism!r}")


def _integer(value) -> int:
    """An integral grid value as an int; a fraction is an error, not truncated."""
    number = int(value)
    if number != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def load_grid(path: str | Path) -> list[SimCondition]:
    """Read a grid definition from JSON; the Cartesian product of its axes.

    Expected keys: ``mu`` (list of [mu_a, mu_b]), ``sigma`` (list of 2x2
    matrices), ``k``, ``pi`` (lists), ``bias`` (list of objects with a
    ``mechanism`` plus per-mechanism fields) and optional ``n_min`` /
    ``n_max``. ``k``, ``n_min`` and ``n_max`` must be integers (10 or
    10.0, not 10.9).
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GridFormatError(f"grid file is not valid JSON: {exc}") from None
    try:
        mus = [(float(m[0]), float(m[1])) for m in spec["mu"]]
        sigmas = [np.asarray(s, dtype=float) for s in spec["sigma"]]
        ks = [_integer(k) for k in spec["k"]]
        pis = [float(p) for p in spec["pi"]]
        biases = [_parse_bias(b) for b in spec["bias"]]
        n_min = _integer(spec.get("n_min", GRID_N_RANGE[0]))
        n_max = _integer(spec.get("n_max", GRID_N_RANGE[1]))
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise GridFormatError(f"bad grid definition: {exc!r}") from None
    try:
        grid = _product_grid(mus, sigmas, ks, pis, biases, n_min, n_max)
    except (NonPSDCovariance, ValueError) as exc:
        raise GridFormatError(f"bad grid values: {exc}") from None
    if not grid:
        raise GridFormatError("grid definition produces no conditions")
    return grid

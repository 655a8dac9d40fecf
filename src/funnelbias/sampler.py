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
shuffle, then binomial realizations in study order.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit, logit

from .errors import GridFormatError, NonPSDCovariance
from .model import MetaDataset, StudyTable, round_half_up

__all__ = [
    "BiasMechanism",
    "BiasSpec",
    "BivariateParams",
    "GenerationTrace",
    "SimCondition",
    "default_grid",
    "generate_meta_analysis",
    "generate_meta_analysis_traced",
    "load_grid",
    "logistic",
    "logit",
    "realize_study",
    "replicate_rng",
    "sample_logit_pairs",
    "sample_sizes",
]

logistic = expit  # inverse of logit, numerically stable on both tails

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


class SelectionBasis(enum.Enum):
    OBSERVED = "observed"  # Youden index of the realized 2x2 table
    TRUE = "true"  # Sen - FPR from the sampled logits


@dataclass(frozen=True, slots=True)
class BiasSpec:
    """How (and how strongly) publication bias is injected."""

    mechanism: BiasMechanism = BiasMechanism.NONE
    selection_fraction: float = 0.0
    eta: tuple[float, float] = (0.0, 0.0)
    mixture_fraction: float = 1.0 / 3.0
    selection_basis: SelectionBasis = SelectionBasis.OBSERVED

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
        if self.k < 3:
            raise ValueError(f"k must be at least 3, got {self.k}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"prevalence must be in (0, 1), got {self.pi}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad sample-size range [{self.n_min}, {self.n_max}]")


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
    mu = np.array(params.mu)
    if params.is_fixed_effects:
        return np.tile(mu, (count, 1))
    z = rng.standard_normal((count, 2))
    return mu + z @ params.sqrt_matrix()


def realize_study(
    theta_a: float, theta_b: float, n1: int, n2: int, rng: np.random.Generator
) -> StudyTable:
    """Fill a 2x2 table with binomial error around the true accuracies."""
    sen = float(expit(theta_a))
    fpr = float(expit(theta_b))
    x = int(rng.binomial(n1, sen))
    y = int(rng.binomial(n2, fpr))
    return StudyTable(x=x, w=n1 - x, y=y, z=n2 - y)


def sample_sizes(
    condition: SimCondition, count: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Total sizes uniform on [n_min, n_max], split by prevalence.

    n1 = round(pi * N) with half-up rounding, n2 the remainder.
    """
    totals = rng.integers(condition.n_min, condition.n_max + 1, size=count)
    out = []
    for total in totals:
        n1 = round_half_up(condition.pi * int(total))
        out.append((n1, int(total) - n1))
    return out


def _observed_youden(table: StudyTable) -> float:
    return table.x / table.n1 + table.z / table.n2 - 1.0


def _realize_all(
    condition: SimCondition, rng: np.random.Generator
) -> tuple[list[StudyTable], list[bool], list[int]]:
    """Every realized table, whether it came from the shifted component, and the kept ones.

    Selection realizes k + l tables and keeps the k with the highest
    scores, in draw order; a mixture realizes its base and shifted logit
    pairs into randomly permuted slots. Returns (tables, shifted flags,
    indices of the kept tables in dataset order).
    """
    bias = condition.bias
    k = condition.k
    n_drop = n_shifted = 0
    if bias.mechanism is BiasMechanism.SELECTION:
        n_drop = round_half_up(bias.selection_fraction * k)
    elif bias.mechanism is BiasMechanism.MIXTURE:
        n_shifted = round_half_up(bias.mixture_fraction * k)
    total = k + n_drop
    sizes = sample_sizes(condition, total, rng)
    pairs = sample_logit_pairs(condition.params, total - n_shifted, rng)
    if bias.mechanism is BiasMechanism.MIXTURE:
        shifted_pairs = sample_logit_pairs(condition.params.shifted(bias.eta), n_shifted, rng)
        pairs = np.vstack([pairs, shifted_pairs])
        sources = rng.permutation(k).tolist()
    else:
        sources = list(range(total))
    tables = [
        realize_study(pairs[src, 0], pairs[src, 1], sizes[slot][0], sizes[slot][1], rng)
        for slot, src in enumerate(sources)
    ]
    shifted = [src >= total - n_shifted for src in sources]
    if n_drop == 0:
        return tables, shifted, list(range(total))
    if bias.selection_basis is SelectionBasis.TRUE:
        scores = [float(expit(pairs[i, 0]) - expit(pairs[i, 1])) for i in range(total)]
    else:
        scores = [_observed_youden(t) for t in tables]
    # drop the n_drop lowest scores; ties drop the smaller study first
    drop_order = sorted(range(total), key=lambda i: (scores[i], tables[i].n, i))
    dropped = set(drop_order[:n_drop])
    return tables, shifted, [i for i in range(total) if i not in dropped]


def generate_meta_analysis(condition: SimCondition, rng: np.random.Generator) -> MetaDataset:
    """Generate one meta-analysis under the condition's bias mechanism."""
    tables, _, kept = _realize_all(condition, rng)
    return MetaDataset([tables[i] for i in kept])


def generate_meta_analysis_traced(
    condition: SimCondition, rng: np.random.Generator
) -> tuple[MetaDataset, GenerationTrace]:
    """Generate one meta-analysis and report how each study arose."""
    tables, shifted, kept = _realize_all(condition, rng)
    dropped = sorted(set(range(len(tables))) - set(kept))
    trace = GenerationTrace(
        origins=tuple("shifted" if shifted[i] else "base" for i in kept),
        kept_youden=tuple(_observed_youden(tables[i]) for i in kept),
        dropped_youden=tuple(_observed_youden(tables[i]) for i in dropped),
        generated=len(tables),
    )
    return MetaDataset([tables[i] for i in kept]), trace


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


def default_grid() -> list[SimCondition]:
    """The full 4 x 3 x 2 x 2 x 5 = 240 condition grid."""
    grid = []
    for mu in GRID_MU:
        for sa2, sab, sb2 in GRID_SIGMA:
            params = BivariateParams(mu=mu, sigma_a2=sa2, sigma_ab=sab, sigma_b2=sb2)
            for k in GRID_K:
                for pi in GRID_PI:
                    for bias in GRID_BIAS:
                        grid.append(
                            SimCondition(
                                params=params,
                                k=k,
                                pi=pi,
                                n_min=GRID_N_RANGE[0],
                                n_max=GRID_N_RANGE[1],
                                bias=bias,
                            )
                        )
    return grid


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


def load_grid(path: str | Path) -> list[SimCondition]:
    """Read a grid definition from JSON; the Cartesian product of its axes.

    Expected keys: ``mu`` (list of [mu_a, mu_b]), ``sigma`` (list of 2x2
    matrices), ``k``, ``pi`` (lists), ``bias`` (list of objects with a
    ``mechanism`` plus per-mechanism fields) and optional ``n_min`` /
    ``n_max``.
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GridFormatError(f"grid file is not valid JSON: {exc}") from None
    try:
        mus = [(float(m[0]), float(m[1])) for m in spec["mu"]]
        sigmas = [np.asarray(s, dtype=float) for s in spec["sigma"]]
        ks = [int(k) for k in spec["k"]]
        pis = [float(p) for p in spec["pi"]]
        biases = [_parse_bias(b) for b in spec["bias"]]
        n_min = int(spec.get("n_min", GRID_N_RANGE[0]))
        n_max = int(spec.get("n_max", GRID_N_RANGE[1]))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise GridFormatError(f"bad grid definition: {exc!r}") from None
    grid = []
    try:
        for mu in mus:
            for sigma in sigmas:
                params = BivariateParams.from_matrix(mu, sigma)
                for k in ks:
                    for pi in pis:
                        for bias in biases:
                            grid.append(
                                SimCondition(
                                    params=params,
                                    k=k,
                                    pi=pi,
                                    n_min=n_min,
                                    n_max=n_max,
                                    bias=bias,
                                )
                            )
    except (NonPSDCovariance, ValueError) as exc:
        raise GridFormatError(f"bad grid values: {exc}") from None
    if not grid:
        raise GridFormatError("grid definition produces no conditions")
    return grid

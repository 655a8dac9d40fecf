"""funnelbias: publication-bias tests for diagnostic test accuracy meta-analysis.

The package covers the full pipeline: 2x2 study tables -> univariate
accuracy measures (lnDOR, -ln theta, Youden, kappa) -> funnel-plot
asymmetry tests (Egger, Macaskill, Begg, trim and fill) -> a seeded
Monte Carlo harness that measures type I error and power over a
240-condition simulation grid.
"""

from .asymmetry import (
    EggerWeighting,
    MacaskillWeighting,
    PrecisionAxis,
    TestFamily,
    TestVariantId,
    TrimFillEstimator,
    TrimFillState,
    begg_test,
    egger_test,
    funnel_points,
    macaskill_test,
    pool_fixed_effects,
    pool_random_effects,
    run_test,
    trim_fill_test,
)
from .measures import (
    Measurement,
    effective_sample_size,
    kappa,
    ln_dor,
    measure_studies,
    neg_ln_theta,
    youden,
)
from .model import (
    AsymmetryTestResult,
    CorrectionPolicy,
    EstimateSet,
    MeasureId,
    MetaDataset,
    Sidedness,
    StudyTable,
    read_dataset_csv,
    validate_dataset,
    write_dataset_csv,
)
from .harness import (
    SimResult,
    run_condition,
    run_grid,
    run_variant,
    summarize,
    wilson_interval,
    write_results_csv,
)
from .sampler import (
    BiasMechanism,
    BiasSpec,
    BivariateParams,
    SimCondition,
    default_grid,
    generate_meta_analysis,
    load_grid,
    replicate_rng,
)

__version__ = "0.1.0"

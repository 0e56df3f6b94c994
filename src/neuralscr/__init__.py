"""Neural EM for semi-competing risks under the gamma-frailty illness-death model."""

from .core import (
    Dataset,
    DatasetValidationError,
    LinearRisk,
    ModelState,
    NonFiniteLikelihoodError,
    ObservedRecord,
    StepHazard,
    WeibullHazard,
    ZeroRisk,
    validate_dataset,
    validation_report,
)
from .em import (
    EMConfig,
    EMResult,
    FixedRiskSpec,
    LinearRiskSpec,
    QValue,
    m_step,
    nelson_aalen_seed,
    q_function,
    run_em,
)
from .frailty import FrailtyPosterior, digamma, posterior
from .harness import (
    bootstrap_baselines,
    cv,
    fit_model,
    replicate_study,
)
from .likelihood import (
    case_log_likelihood,
    complete_data_log_likelihood,
    joint_event_free_survival,
    observed_log_likelihood,
)
from .metrics import (
    BBSCurve,
    CensoringCurve,
    ExponentialCensoring,
    ZeroWeightError,
    bbs,
    integrated_bbs,
    reverse_km,
)
from .neural import (
    NeuralRisk,
    NeuralRiskSpec,
    RiskNetwork,
    TrainConfig,
    default_grid,
    forward,
    grid_search,
    init_network,
    mise,
    train_step,
)
from .simulate import SimConfig, SimTruth, simulate, true_survival
from .weibull import ParametricModel, fit_parametric, predict_parametric

__version__ = "0.1.0"

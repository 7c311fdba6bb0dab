"""Extropy-based information measures, dynamic lifetime analysis and estimation."""

from .distributions import (
    ConstantReversedHazardParams,
    ExponentialParams,
    SeededSampler,
    UniformParams,
    WeibullParams,
    parse_family,
    sample,
)
from .dynamic import (
    DynamicProfile,
    DynamicVerdict,
    TimeGrid,
    bound_checks,
    constancy_detector,
    dynamic_orderings,
    dynamic_profile,
    global_decompositions,
    hazard_repr_inaccuracy,
    hazard_repr_relative,
    ode_check_divergence,
    ode_check_relative,
    past_divergence,
    past_extropy,
    past_inaccuracy,
    past_relative,
    residual_divergence,
    residual_extropy,
    residual_inaccuracy,
    residual_relative,
    sum_rules,
)
from .estimation import (
    KdeModel,
    McStudyConfig,
    McStudyRow,
    SampleBatch,
    estimate_pairwise_relative_extropy,
    estimate_relative_extropy,
    mc_bias_mse,
    sample_batch,
    sheather_jones_bandwidth,
)
from .grouping import DivergenceMatrix, GroupedDataset, load_csv, pairwise_matrix
from .measures import (
    OrderingVerdict,
    PerturbationQuery,
    compare_static_ordering,
    decompose_relative,
    extropy,
    extropy_divergence,
    extropy_inaccuracy,
    perturbation_approx,
    relative_extropy,
)
from .models import DistributionModel, MeasureReport, validate_model
from .quadrature import QuadratureSpec

__version__ = "0.1.0"

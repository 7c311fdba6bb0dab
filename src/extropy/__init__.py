"""Extropy-based information measures, dynamic lifetime analysis and estimation."""

from .distributions import (
    ConstantReversedHazardParams,
    ExponentialParams,
    SeededSampler,
    UniformParams,
    WeibullParams,
    closed_form_relative_exponential,
    crh_past_measures,
    make_model,
    parse_family,
    sample,
)
from .dynamic import (
    DynamicVerdict,
    TimeGrid,
    bound_checks,
    constancy_detector,
    dynamic_orderings,
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
)
from .estimation import (
    KdeModel,
    McStudyConfig,
    McStudyRow,
    SampleBatch,
    estimate_pairwise_relative_extropy,
    estimate_relative_extropy,
    gaussian_kernel,
    mc_bias_mse,
    sample_batch,
    sheather_jones_bandwidth,
)
from .grouping import DivergenceMatrix, GroupedDataset, QuantileGroupSpec, load_csv, pairwise_matrix
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

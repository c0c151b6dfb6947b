"""Stochastic random-feature conic particle gradient descent for sparse
optimization over nonnegative measures."""

from .measures import (
    CesaroTracker,
    ParticleMeasure,
    cesaro_average,
    grid_points,
    sample_particle_index,
    uniform_grid_measure,
)
from .models import (
    FeatureModel,
    FourierDeconvolutionModel,
    GaussianMixtureModel,
    GroundTruth,
    ModelBounds,
    ReluFeatureModel,
    project_to_ball,
    sample_mixture_data,
    sample_regression_data,
)
from .stochastic import (
    Minibatch,
    draw_batch,
    marginal_cost,
)
from .diagnostics import (
    KktReport,
    OracleResult,
    finite_diff_check,
    grid_oracle,
    kkt_certificate,
    objective,
)
from .optimizer import (
    Radii,
    RunConfig,
    RunResult,
    Schedule,
    TraceRecord,
    make_schedule,
    mass_radii,
    run,
    step,
)
from . import benchmarks

__version__ = "0.1.0"

"""Dual-stage conditional normalizing flows for grid land-use generation.

Stage 1 models the density of coarse zone layouts given an urban information
vector; stage 2 models fine-grained POI count configurations given a fused,
zone-aware conditioning matrix.  Both stages are exact-likelihood normalizing
flows built on a small hand-rolled reverse-mode tape (see ``numerics``), so
every Jacobian log-determinant and gradient in the package is checkable
against finite differences.
"""

from .config_flow import ConfigFlowModel, ConfigTensor
from .errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DimensionError,
    ModeError,
    PipelineError,
    SamplingFault,
    TrainingFault,
    UrbanFlowsError,
)
from .fusion import FusionModule
from .metrics import hellinger, kl_div, to_distribution, wasserstein_1d
from .pipeline import ModelBundle, evaluate_model, generate_batch, generate_one
from .runconfig import RunConfig
from .synthdata import Dataset, generate_sample, make_dataset
from .zone_flow import ZoneFlowModel, ZoneMap

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigFlowModel",
    "ConfigTensor",
    "ConfigurationError",
    "DataError",
    "Dataset",
    "DimensionError",
    "FusionModule",
    "ModeError",
    "ModelBundle",
    "PipelineError",
    "RunConfig",
    "SamplingFault",
    "TrainingFault",
    "UrbanFlowsError",
    "ZoneFlowModel",
    "ZoneMap",
    "evaluate_model",
    "generate_batch",
    "generate_one",
    "generate_sample",
    "hellinger",
    "kl_div",
    "make_dataset",
    "to_distribution",
    "wasserstein_1d",
]

"""Numerical core: autodiff tape, NN kernels, parameters, Adam, oracles."""

from .tape import (
    Tensor,
    as_tensor,
    no_grad,
    grad_enabled,
    matmul,
    exp,
    clip,
    permute_columns,
    append_zero_column,
)
from .kernels import (
    conv2d_nhwc,
    layer_norm,
    convnext_layer,
    conditioner_mlp_arrays,
    affine_step,
    batchnorm_flow,
    pass_arrays,
    softmax_rows,
)
from .params import ParameterStore, normal
from .optim import Adam
from .oracle import numerical_jacobian, numerical_gradient, max_relative_error

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "grad_enabled",
    "matmul",
    "exp",
    "clip",
    "permute_columns",
    "append_zero_column",
    "conv2d_nhwc",
    "layer_norm",
    "convnext_layer",
    "conditioner_mlp_arrays",
    "affine_step",
    "batchnorm_flow",
    "pass_arrays",
    "softmax_rows",
    "ParameterStore",
    "normal",
    "Adam",
    "numerical_jacobian",
    "numerical_gradient",
    "max_relative_error",
]

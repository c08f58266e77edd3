"""Energy-based transformer block whose forward pass descends a global energy.

Submodules:
  core      energies, analytic gradients, and the update dynamics
  autodiff  tape-based reverse-mode differentiation and the FD oracle
  optim     Adam with decoupled weight decay and gradient clipping
  unroll    routes training tensors through core's block on the tape
  image     masked-patch image completion pipeline
  graph     node anomaly detection on attributed graphs
  data      synthetic datasets, PGM/PPM codecs, checkpoints, seeded RNG
  cli       batch command-line interface
"""

from .core import (
    AttentionParams,
    EnergyBreakdown,
    EtParams,
    ExcludeSelf,
    GraphNeighborhood,
    HopfieldParams,
    IncludeSelf,
    LayerNormParams,
    Power,
    Relu,
    Softmax,
    attention_energy,
    attention_grad,
    default_beta,
    et_forward,
    et_step,
    et_unroll,
    hopfield_energy,
    hopfield_grad,
    lagrangian,
    layer_norm,
    param_count,
    total_energy,
)

__all__ = [
    "AttentionParams",
    "EnergyBreakdown",
    "EtParams",
    "ExcludeSelf",
    "GraphNeighborhood",
    "HopfieldParams",
    "IncludeSelf",
    "LayerNormParams",
    "Power",
    "Relu",
    "Softmax",
    "attention_energy",
    "attention_grad",
    "default_beta",
    "et_forward",
    "et_step",
    "et_unroll",
    "hopfield_energy",
    "hopfield_grad",
    "lagrangian",
    "layer_norm",
    "param_count",
    "total_energy",
]

__version__ = "0.1.0"

"""Prototype classification with learned metrics and sparse relevance profiles.

GLVQ trains labeled prototypes by stochastic gradient descent on a
smooth surrogate of the classification error. GRLVQ learns a diagonal
weighting of the input dimensions alongside (the relevance profile),
GMLVQ a full linear projection. A differentiable approximation of the
l1 norm makes a LASSO-style penalty compatible with plain gradient
descent, so ramping the penalty weight drives the profile sparse while
accuracy is monitored along the path.
"""

from .dataset import LabeledDataset, SplitSpec, l2_normalize, load_csv, save_csv, split, synth_sparse
from .glvq import PrototypeSet, TransferFn
from .l1smooth import DEFAULT_ALPHA, abs_smooth, l1_smooth, matrix_l1_exact, matrix_l1_smooth, sandwich_check
from .metric import OmegaMatrix, RelevanceProfile
from .trainer import (
    EpochMetrics,
    LVQModel,
    NonFiniteUpdate,
    PathSchedule,
    TrainConfig,
    evaluate,
    init_model,
    load_model,
    predict,
    run_path,
    save_model,
    sparsity_of,
    train,
)

__version__ = "0.1.0"

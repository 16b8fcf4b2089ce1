"""Decomposition-trained attention models for the bi-objective TSP.

A bi-objective tour-length problem is decomposed into M weighted-sum
subproblems; each is solved by an attention encoder/decoder policy trained
with REINFORCE against a convolutional critic baseline, with parameters
handed from each subproblem to the next. Greedy rollouts of all M models
approximate the Pareto front, scored by exact bi-objective hypervolume.
"""

from .autodiff import Array, backward, constant, param
from .decomposition import (RunConfig, SubproblemSchedule, load_models,
                            make_weights, run_schedule, save_models)
from .errors import (BatchTooSmallError, BoundsError, ContractError,
                     DimensionError, NoFeasibleActionError, NonFiniteError,
                     ParseError, TrainingDivergedError)
from .evaluation import (ArchiveEntry, ParetoArchive, approximate_pf,
                         compute_hv_protocol, hypervolume_2d, normalize,
                         read_pf_csv, write_hv_report, write_pf_csv)
from .instances import (MotspInstance, Tour, evaluate_objectives, load_native,
                        load_tsplib_pair, save_native)
from .model import ActorParams, CriticParams, ModelConfig, rollout
from .trainer import Adam, TrainReport, reinforce_iteration, train_subproblem

__version__ = "0.1.0"

__all__ = [
    "ActorParams", "Adam", "ArchiveEntry", "Array", "BatchTooSmallError",
    "BoundsError", "ContractError", "CriticParams", "DimensionError",
    "ModelConfig", "MotspInstance", "NoFeasibleActionError", "NonFiniteError",
    "ParetoArchive", "ParseError", "RunConfig", "SubproblemSchedule", "Tour",
    "TrainReport", "TrainingDivergedError", "approximate_pf",
    "backward", "compute_hv_protocol", "constant", "evaluate_objectives",
    "hypervolume_2d", "load_models", "load_native", "load_tsplib_pair",
    "make_weights", "normalize", "param", "read_pf_csv",
    "reinforce_iteration", "rollout", "run_schedule", "save_models",
    "save_native", "train_subproblem", "write_hv_report", "write_pf_csv",
]

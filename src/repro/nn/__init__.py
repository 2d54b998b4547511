"""``repro.nn`` — NumPy tensor/autograd framework (the "Torch" substrate).

Provides the inference engine and training stack the HPAC-ML runtime
delegates to.  See DESIGN.md §2 for the Torch → repro.nn substitution.
"""

from .tensor import Tensor, no_grad, is_grad_enabled, unbroadcast
from . import functional
from .layers import (
    Module, Parameter, Linear, Conv1d, Conv2d, MaxPool1d, MaxPool2d,
    AvgPool2d, ReLU, Tanh, Sigmoid, LeakyReLU, Dropout, Flatten,
    Sequential, Identity, BatchNorm1d, LayerNorm, CropPad2d,
    Standardize, Destandardize,
)
from .plan import (FleetPlan, PlanStep, fleet_fingerprint, register_lowering,
                   structural_fingerprint, UnsupportedLayerError)
from .compile import compile_fleet_inference, compile_inference, CompiledPlan
from .compile_train import (compile_fleet_training, compile_training,
                            CompiledTrainingPlan, FleetTrainingPlan,
                            FusedAdam, FusedSGD,
                            fleet_training_fingerprint,
                            training_fingerprint)
from .optim import Optimizer, SGD, Adam
from .loss import mse_loss, l1_loss, huber_loss, mape_loss, rmse, mape
from .serialize import (save_model, load_model, load_meta, spec_from_model,
                        model_from_spec, ModelFormatError)
from .training import (FleetTrainer, Trainer, TrainResult,
                       train_val_split, iterate_minibatches,
                       normalize_stats, Normalizer)
from .schedulers import StepLR, CosineAnnealingLR, ReduceLROnPlateau
from .recurrent import GRUCell, GRU
from .data import ArrayDataset, H5Dataset, DataLoader

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "unbroadcast", "functional",
    "Module", "Parameter", "Linear", "Conv1d", "Conv2d", "MaxPool1d",
    "MaxPool2d", "AvgPool2d", "ReLU", "Tanh", "Sigmoid", "LeakyReLU",
    "Dropout", "Flatten", "Sequential", "Identity", "BatchNorm1d",
    "LayerNorm", "CropPad2d", "Standardize", "Destandardize", "Optimizer", "SGD", "Adam", "mse_loss", "l1_loss",
    "huber_loss", "mape_loss", "rmse", "mape", "save_model", "load_model",
    "load_meta", "spec_from_model", "model_from_spec", "ModelFormatError",
    "Trainer", "TrainResult", "train_val_split", "iterate_minibatches",
    "normalize_stats", "Normalizer", "StepLR", "CosineAnnealingLR",
    "ReduceLROnPlateau", "GRUCell", "GRU", "ArrayDataset",
    "H5Dataset", "DataLoader", "compile_inference", "CompiledPlan",
    "UnsupportedLayerError", "compile_training", "CompiledTrainingPlan",
    "FusedAdam", "FusedSGD", "PlanStep", "register_lowering",
    "structural_fingerprint", "training_fingerprint",
    "FleetPlan", "FleetTrainingPlan", "FleetTrainer",
    "compile_fleet_inference", "compile_fleet_training",
    "fleet_fingerprint", "fleet_training_fingerprint",
]

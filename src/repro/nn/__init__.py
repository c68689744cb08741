"""``repro.nn`` — a from-scratch numpy neural-network framework.

Provides the deep-learning substrate the ENLD paper builds on: autograd
tensors, layers, a small model zoo exposing softmax confidences
``M(x, θ)`` and penultimate features ``M̂(x, θ)``, optimisers, Mixup,
data loading and training loops.
"""

from .augment import (compose, cutout, gaussian_jitter, random_hflip,
                      random_shift)
from .data import DataLoader, LabeledDataset, train_test_split
from .layers import (BatchNorm1d, Conv2d, Dropout, Flatten, LayerNorm,
                     Linear, Module, ReLU, Sequential, Tanh)
from .losses import cross_entropy, mse_loss, soft_cross_entropy
from .metrics import accuracy, confusion_matrix, evaluate_accuracy
from .mixup import mixup_batch
from .models import (Classifier, DenseNetMLP, MLPClassifier, ResNetMLP,
                     SmallConvNet, available_models, build_model,
                     register_model)
from .optim import SGD, Adam, CosineLR, StepLR, clip_grad_norm
from .rng import resolve_rng
from .serialize import clone_module, copy_into, load_checkpoint, save_checkpoint
from .tensor import Tensor, concatenate
from .train import TrainReport, evaluate_loss, fit, fit_epoch

__all__ = [
    "Tensor", "concatenate",
    "Module", "Linear", "Conv2d", "ReLU", "Tanh", "Dropout", "BatchNorm1d",
    "LayerNorm", "Sequential", "Flatten",
    "Classifier", "MLPClassifier", "ResNetMLP", "DenseNetMLP", "SmallConvNet",
    "build_model", "register_model", "available_models",
    "cross_entropy", "soft_cross_entropy", "mse_loss",
    "SGD", "Adam", "StepLR", "CosineLR", "clip_grad_norm",
    "LabeledDataset", "DataLoader", "train_test_split", "resolve_rng",
    "mixup_batch",
    "accuracy", "evaluate_accuracy", "confusion_matrix",
    "fit", "fit_epoch", "evaluate_loss", "TrainReport",
    "save_checkpoint", "load_checkpoint", "copy_into", "clone_module",
    "compose", "cutout", "gaussian_jitter", "random_hflip", "random_shift",
]

"""The SGD optimiser ``repro.nn`` trains with."""

from __future__ import annotations

from typing import List

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimiser operating on a list of parameter tensors."""

    def __init__(self, params: List[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, params: List[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 nesterov: bool = False):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = grad + self.momentum * v if self.nesterov else v
            else:
                update = grad
            p.data -= self.lr * update

"""Gradient-based optimizers: SGD (with momentum) and Adam.

Both support decoupled L2 weight decay, which is how the paper's
``l2 regularization factor`` (5e-4 on the citation networks) is applied.

The update rules are written against per-parameter scratch buffers so a
step allocates nothing after the first call.  Every in-place expression
keeps the operand order and associativity of the textbook formulation,
so the trajectories are bitwise identical to the allocating version
(IEEE-754 addition and multiplication are commutative bitwise; only
reassociation would change results, and none is performed).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _buffers(self, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable work arrays shaped like ``param`` (lazily built)."""
        buffers = self._scratch.get(id(param))
        if buffers is None:
            buffers = (np.empty_like(param.data), np.empty_like(param.data))
            self._scratch[id(param)] = buffers
        return buffers

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients on all managed parameters.

        ``set_to_none=True`` (default) drops the grad arrays rather than
        zero-filling them; backward then copies each first contribution
        into a fresh array, so no time is spent zeroing memory that is
        about to be overwritten.
        """
        for param in self.parameters:
            param.zero_grad(set_to_none=set_to_none)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            update, _ = self._buffers(param)
            if self.weight_decay:
                # grad + wd*p, written as wd*p + grad (addition commutes bitwise).
                np.multiply(param.data, self.weight_decay, out=update)
                update += grad
                grad = update
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = self._velocity[id(param)] = np.zeros_like(param.data)
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            np.multiply(grad, self.lr, out=update)
            param.data -= update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with L2 weight decay.

    This matches the paper's training setup: Adam with learning rate 0.01
    and an L2 factor folded into the gradient.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            buf_a, buf_b = self._buffers(param)
            if self.weight_decay:
                # grad + wd*p, written as wd*p + grad (addition commutes bitwise).
                np.multiply(param.data, self.weight_decay, out=buf_a)
                buf_a += grad
                grad = buf_a
            m = self._first_moment.get(id(param))
            if m is None:
                m = self._first_moment[id(param)] = np.zeros_like(param.data)
            v = self._second_moment.get(id(param))
            if v is None:
                v = self._second_moment[id(param)] = np.zeros_like(param.data)
            # m = beta1*m + (1-beta1)*grad
            np.multiply(grad, 1.0 - self.beta1, out=buf_b)
            m *= self.beta1
            m += buf_b
            # v = beta2*v + ((1-beta2)*grad)*grad  — same left-association
            # as the allocating `(1-beta2) * grad * grad`.
            np.multiply(grad, 1.0 - self.beta2, out=buf_b)
            buf_b *= grad
            v *= self.beta2
            v += buf_b
            # update = (lr * (m/bias1)) / (sqrt(v/bias2) + eps); grad (an
            # alias of buf_a when decayed) is dead past this point.
            np.divide(m, bias1, out=buf_a)
            np.multiply(buf_a, self.lr, out=buf_a)
            np.divide(v, bias2, out=buf_b)
            np.sqrt(buf_b, out=buf_b)
            buf_b += self.eps
            buf_a /= buf_b
            param.data -= buf_a

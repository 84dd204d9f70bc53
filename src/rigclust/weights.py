"""Weight laws for actor and attribute intensities.

The bipartite model attaches a positive random weight to every actor and every
attribute; link probabilities are proportional to products of these weights.
Two law families cover everything the workbench needs:

* ``Pareto(x_min, tail_index)`` -- survival function ``(x_min / t) ** tail_index``
  for ``t >= x_min``.  The canonical heavy-tailed choice; its raw moment of
  order ``r`` is finite exactly when ``r < tail_index``.
* ``Finite(atoms)`` -- an arbitrary finite support law given as
  ``((value, prob), ...)``.  ``Degenerate(value)`` builds its one-atom case,
  the point mass that collapses the model onto plain Poisson behaviour.

``WeightLaw`` is the closed pair ``Pareto | Finite``.  Both are frozen
dataclasses, safe to share across threads and usable as dict keys.  Sampling
takes a ``numpy.random.Generator`` so callers control the stream.

:class:`ModelParams` bundles the two laws with the sizes and the shape ratio:
it is the one model that both the sampler and the limit theory read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "InfiniteMomentError",
    "WeightLaw",
    "Pareto",
    "Degenerate",
    "Finite",
    "ModelParams",
]


class DomainError(ValueError):
    """Weight laws outside the domain of a limit formula."""


class InfiniteMomentError(DomainError):
    """Raised when a requested raw moment does not exist for the law."""


def _check_order(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {r!r}")
    return int(r)


@dataclass(frozen=True)
class Pareto:
    """Pareto law on [x_min, inf) with survival (x_min/t)**tail_index."""

    x_min: float
    tail_index: float

    def __post_init__(self):
        if not (self.x_min > 0 and math.isfinite(self.x_min)):
            raise ValueError(f"x_min must be positive and finite, got {self.x_min}")
        if not (self.tail_index > 0 and math.isfinite(self.tail_index)):
            raise ValueError(f"tail_index must be positive and finite, got {self.tail_index}")

    @property
    def tail_amplitude(self) -> float:
        """Constant c with P(Z > t) = c * t**(-tail_index) for t >= x_min."""
        return self.x_min**self.tail_index

    def moment(self, r: int) -> float:
        r = _check_order(r)
        if r == 0:
            return 1.0
        alpha = self.tail_index
        if r >= alpha:
            raise InfiniteMomentError(
                f"E[Z^{r}] is infinite for Pareto tail index {alpha}"
            )
        if alpha - r < 0.1:
            # Near-critical orders: keep the 1/(alpha - r) blow-up in log space
            # so the power factors cannot overflow first.
            return math.exp(
                math.log(alpha) + r * math.log(self.x_min) - math.log(alpha - r)
            )
        return alpha * self.x_min**r / (alpha - r)

    def tail(self, t: float) -> float:
        if t < self.x_min:
            return 1.0
        return (self.x_min / t) ** self.tail_index

    def sample(self, rng: np.random.Generator, size=None):
        # Inverse CDF: x_min * u**(-1/alpha) for u uniform on (0, 1].
        # rng.random() lives in [0, 1); using 1 - u avoids mapping 0 to inf.
        u = 1.0 - rng.random(size)
        return self.x_min * u ** (-1.0 / self.tail_index)

    def size_biased(self, r: int) -> "Pareto":
        r = _check_order(r)
        if r == 0:
            return self
        if r >= self.tail_index:
            raise InfiniteMomentError(
                f"size-biasing of order {r} needs tail index > {r}, "
                f"got {self.tail_index}"
            )
        return Pareto(self.x_min, self.tail_index - r)


@dataclass(frozen=True)
class Finite:
    """Finite-support law given as atoms ((value, prob), ...)."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(v), float(p)) for v, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("Finite law needs at least one atom")
        # Negated comparisons, so that a nan fails them.
        for v, p in atoms:
            if not 0 <= v < math.inf:
                raise ValueError(f"atom value {v} must be nonnegative and finite")
            if not 0 <= p <= 1:
                raise ValueError(f"atom probability {p} must lie in [0, 1]")
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total}, expected 1")

    def moment(self, r: int) -> float:
        r = _check_order(r)
        return math.fsum(p * v**r for v, p in self.atoms)

    def tail(self, t: float) -> float:
        return math.fsum(p for v, p in self.atoms if v > t)

    def sample(self, rng: np.random.Generator, size=None):
        values = np.array([v for v, _ in self.atoms], dtype=np.float64)
        probs = np.array([p for _, p in self.atoms], dtype=np.float64)
        probs = probs / probs.sum()
        out = rng.choice(values, size=size if size is not None else 1, p=probs)
        if size is None:
            return float(out[0])
        return out

    def size_biased(self, r: int) -> "Finite":
        r = _check_order(r)
        if r == 0:
            return self
        weights = [p * v**r for v, p in self.atoms]
        total = math.fsum(weights)
        if total <= 0.0:
            raise ValueError("cannot size-bias: law has zero mass above 0")
        return Finite(tuple((v, w / total) for (v, _), w in zip(self.atoms, weights)))


#: The closed pair of weight laws.  Each gives raw moments ``moment(r)``, the
#: tail ``tail(t)`` = P(Z > t), ``sample(rng, size)`` and ``size_biased(r)``,
#: the law reweighted by z**r (identity for r = 0).
WeightLaw = Pareto | Finite


def Degenerate(value: float) -> Finite:
    """Point mass at a nonnegative value: the one-atom :class:`Finite` law."""
    return Finite(((value, 1.0),))


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: sizes, shape ratio, and the two weight laws.

    ``beta`` is the limiting ratio m/n used by every limit formula; the stored
    integer sizes only matter for simulation.  Moment helpers ``a(r)``/``b(r)``
    delegate to the weight laws (attribute side X, actor side Y).
    """

    n: int
    m: int
    beta: float
    x_law: WeightLaw
    y_law: WeightLaw

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    def a(self, r: int) -> float:
        """E[X**r] for the attribute weight law."""
        return self.x_law.moment(r)

    def b(self, r: int) -> float:
        """E[Y**r] for the actor weight law."""
        return self.y_law.moment(r)

"""Commutation-sign tables and model parameters for the twisted finite Fock model.

A sign table fixes the function eps on the signed index set
I = {-n, ..., -1, 1, ..., n}: it is symmetric, equals -1 whenever the two
indices share an absolute value, and otherwise depends only on absolute
values, so it is determined by one sign per unordered pair {k, l} with
1 <= k < l <= n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SignTable", "ModelParams", "MAX_N", "check_weights"]

# dense 4**n GNS matrices (4096 at n = 6); the ratio search runs at 2**n (64)
MAX_N = 6
# P(+1) of each off-diagonal sign drawn by SignTable.random
P_PLUS = 0.5


@dataclass(frozen=True)
class SignTable:
    """Signs on unordered pairs {k, l}, 1 <= k < l <= n, values in {-1, +1}."""

    n: int
    entries: tuple = field(default=())  # tuple of ((k, l), sign) pairs, ordered

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        expected = {(k, l) for k in range(1, self.n + 1) for l in range(k + 1, self.n + 1)}
        got = {pair for pair, _ in self.entries}
        if got != expected or len(self.entries) != len(expected):
            raise ValueError("sign table must cover every pair {k, l} with k < l exactly once")
        for pair, s in self.entries:
            if s not in (-1, 1):
                raise ValueError(f"sign for pair {pair} must be +-1, got {s}")

    @classmethod
    def from_dict(cls, mapping: dict, n: int) -> "SignTable":
        entries = tuple(sorted((tuple(sorted(pair)), int(s)) for pair, s in mapping.items()))
        return cls(n=n, entries=entries)

    @classmethod
    def all_anticommuting(cls, n: int) -> "SignTable":
        """eps = -1 everywhere (CAR / fermionic choice)."""
        return cls.from_dict({(k, l): -1 for k in range(1, n + 1) for l in range(k + 1, n + 1)}, n)

    @classmethod
    def all_commuting(cls, n: int) -> "SignTable":
        """eps = +1 off the diagonal."""
        return cls.from_dict({(k, l): 1 for k in range(1, n + 1) for l in range(k + 1, n + 1)}, n)

    @classmethod
    def random(cls, n: int, seed: int) -> "SignTable":
        """i.i.d. off-diagonal signs with P(+1) = P_PLUS, Philox-keyed by seed."""
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        draws = rng.random(len(pairs))
        return cls.from_dict(
            {pair: (1 if u < P_PLUS else -1) for pair, u in zip(pairs, draws)}, n)

    def matrix(self) -> np.ndarray:
        """(n, n) int matrix of eps on absolute indices, -1 on the diagonal."""
        m = -np.ones((self.n, self.n), dtype=np.int64)
        for (k, l), s in self.entries:
            m[k - 1, l - 1] = s
            m[l - 1, k - 1] = s
        return m

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "pairs": [[k, l, s] for (k, l), s in self.entries]})

    @classmethod
    def from_json(cls, text: str) -> "SignTable":
        try:
            data = json.loads(text, parse_float=int)    # integers only: 1.9 or 1.0 is an error
            n, pairs = int(data["n"]), [((int(k), int(l)), int(s)) for k, l, s in data["pairs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"sign table JSON needs n and [k, l, sign] pairs: {exc!r}") from None
        return cls(n=n, entries=tuple(sorted((tuple(sorted(kl)), s) for kl, s in pairs)))


def check_weights(mu) -> tuple:
    """The weights mu_1, mu_2, ... as floats, each finite and >= 1 with mu_i**4 finite:
    every model forms lambda_i = 1/(1 + mu_i**4)."""
    mu = tuple(float(m) for m in mu)
    if not all(1.0 <= m < math.inf for m in mu):
        raise ValueError(f"mu entries must be finite and >= 1, got {mu}")
    for i, m in enumerate(mu, 1):
        if not math.isfinite(m * m * m * m):
            raise ValueError(f"weight mu_{i} = {m!r} is too large: mu_{i}**4 is not finite")
    return mu


@dataclass(frozen=True)
class ModelParams:
    """Finite model parameters: size n, weights mu_i >= 1, and the sign table.

    The weights must keep prod_i 1/(1 + mu_i**4) at or above the smallest normal float
    (``np.finfo(float).tiny``): one weight up to about 8e76, two up to about 2.9e38 each."""

    n: int
    mu: tuple
    signs: SignTable

    def __post_init__(self):
        if not (1 <= self.n <= MAX_N):
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")
        object.__setattr__(self, "mu", check_weights(self.mu))
        if len(self.mu) != self.n:
            raise ValueError(f"need {self.n} mu values, got {len(self.mu)}")
        # the smallest entry of the density's diagonal rho is prod_i lambda_i: below the
        # smallest normal float it is subnormal or 0, and rho loses the vacuum state
        smallest = math.prod(1.0 / (1.0 + m * m * m * m) for m in self.mu)
        if smallest < np.finfo(float).tiny:
            raise ValueError(f"weights {self.mu} are too large: the density's smallest entry "
                             f"prod_i 1/(1 + mu_i**4) = {smallest:.3e} is below the smallest "
                             f"normal float")
        if self.signs.n != self.n:
            raise ValueError("sign table size does not match n")

    @classmethod
    def make(cls, n: int, mu, signs: SignTable | None = None, sign_seed: int = 0) -> "ModelParams":
        if np.isscalar(mu):
            mu = (float(mu),) * n
        if signs is None:
            signs = SignTable.random(n, sign_seed)
        return cls(n=n, mu=tuple(mu), signs=signs)

    def sub(self, k: int) -> "ModelParams":
        """The model on indices 1..k with the restricted sign table."""
        if not (1 <= k <= self.n):
            raise ValueError(f"sub-model size {k} out of range")
        table = SignTable.from_dict(
            {(a, b): s for (a, b), s in self.signs.entries if b <= k}, k)
        return ModelParams(n=k, mu=self.mu[:k], signs=table)

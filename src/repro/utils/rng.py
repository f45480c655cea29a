"""Randomness policy.

All stochastic inputs in the library (the random B matrices, fault
injection, Monte-Carlo sampling in the macro model) flow through seeded
:class:`numpy.random.Generator` instances created here, so that

* experiments are exactly reproducible given a seed, and
* the micro (instruction-level) and macro (vectorized) engines can be fed
  the *same* data set for a given ``(experiment, n, p, seed)`` tuple, as the
  paper did ("the same data sets were used on all versions of the
  algorithm with the same value of n and p").
"""

from __future__ import annotations

import hashlib

import numpy as np
# numpy loads its random module lazily; load it with the library instead
# of inside the first call that draws.
import numpy.random  # noqa: F401

#: Seed used by experiments when the caller does not supply one.
DEFAULT_SEED = 19880815  # ICPP 1988


def derive_seed(root_seed: int, *components) -> int:
    """Derive a stable 63-bit child seed from a root seed and labels.

    The derivation hashes the textual representation of all components, so
    ``derive_seed(s, "fig7", n, p)`` is stable across processes and Python
    versions (unlike ``hash``).
    """
    text = ":".join([str(int(root_seed))] + [repr(c) for c in components])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(root_seed: int, *components) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for a namespaced purpose."""
    return np.random.default_rng(derive_seed(root_seed, *components))

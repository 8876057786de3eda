"""Synthetic weight generation and magnitude pruning.

The paper prunes its networks with Han et al.'s two-phase algorithm: weights
whose magnitude falls below a threshold are zeroed, then the network is
retrained.  The architecture only observes the *result* of that process — a
weight tensor with a given density and an unstructured non-zero pattern — so
we reproduce it by magnitude-pruning randomly initialised weights to the
calibrated per-layer density.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import ConvLayerSpec


def generate_dense_weights(
    spec: ConvLayerSpec, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Gaussian-initialised dense weights of shape ``(K, C/groups, S, R)``.

    The scale follows the usual fan-in normalisation so forward activations
    stay in a numerically reasonable range when layers are chained.
    """
    rng = rng or np.random.default_rng()
    fan_in = spec.weight_shape[1] * spec.filter_height * spec.filter_width
    scale = 1.0 / np.sqrt(fan_in)
    return rng.normal(0.0, scale, size=spec.weight_shape)


def kept_count(density: float, size: int, *, minimum: int = 0) -> int:
    """Non-zeros a tensor of ``size`` elements synthesised at ``density`` keeps.

    ``round(density * size)`` clamped to ``[minimum, size]``: the one formula
    behind :func:`prune_to_density` (``minimum=1``) and
    :func:`repro.nn.inference.generate_activations`, so a synthesised
    tensor's density is known without materialising it.
    """
    return max(minimum, min(size, int(round(density * size))))


def prune_to_density(
    weights: np.ndarray,
    density: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Magnitude-prune ``weights`` so the kept fraction equals ``density``.

    The smallest-magnitude weights are zeroed first, exactly like phase one of
    Han et al.'s pruning, until :func:`kept_count` remain.  A tiny random
    jitter breaks ties so the density is hit exactly; the set to zero is then
    chosen by partial selection (``np.argpartition``), which picks the same
    indices a full sort would once the jittered magnitudes are distinct.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    weights = np.asarray(weights, dtype=float)
    total = weights.size
    # Only a full rounded count skips the jitter draw; a one-element tensor
    # clamped up to its single weight still draws it, like any pruned tensor.
    if kept_count(density, total) == total:
        return weights.copy()
    keep = kept_count(density, total, minimum=1)

    rng = rng or np.random.default_rng()
    magnitudes = np.abs(weights).reshape(-1)
    # Random jitter far below the smallest magnitude gap breaks exact ties
    # (common when many weights share a value) without reordering distinct
    # magnitudes.
    jitter = rng.uniform(0.0, 1.0, size=total) * 1e-12
    smallest = np.argpartition(magnitudes + jitter, total - keep - 1)
    pruned = weights.reshape(-1).copy()
    pruned[smallest[: total - keep]] = 0.0
    return pruned.reshape(weights.shape)


def generate_pruned_weights(
    spec: ConvLayerSpec,
    density: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Convenience wrapper: dense initialisation followed by pruning."""
    rng = rng or np.random.default_rng()
    return prune_to_density(generate_dense_weights(spec, rng), density, rng)


def measured_density(tensor: np.ndarray) -> float:
    """Fraction of non-zero elements of ``tensor``."""
    tensor = np.asarray(tensor)
    if tensor.size == 0:
        return 0.0
    return float(np.count_nonzero(tensor)) / tensor.size

"""Slow reference implementations that pin the fast paths bitwise.

These are the straightforward versions the library used to ship:

* :func:`conv_mask_nonzero_multiplies` counts the oracle's products by a
  dense float convolution of the two operand masks;
* :func:`argsort_prune_to_density` fully sorts the jittered magnitudes to
  choose which weights to zero;
* :func:`out_of_place_activations` synthesises activations with a fresh
  array for every intermediate.

The property and catalogue tests compare the library's box-sum oracle,
partial-selection pruning and in-place activation synthesis against them,
result bits and RNG state included.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ConvLayerSpec
from repro.nn.reference import conv2d_layer


def conv_mask_nonzero_multiplies(
    spec: ConvLayerSpec, weights: np.ndarray, activations: np.ndarray
) -> int:
    """Products with both operands non-zero, by convolving the masks."""
    weight_mask = (np.asarray(weights) != 0).astype(float)
    act_mask = (np.asarray(activations) != 0).astype(float)
    return int(round(conv2d_layer(act_mask, weight_mask, spec).sum()))


def argsort_prune_to_density(
    weights: np.ndarray, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Magnitude pruning that sorts every jittered magnitude."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    weights = np.asarray(weights, dtype=float)
    total = weights.size
    keep = int(round(total * density))
    if keep >= total:
        return weights.copy()
    if keep <= 0:
        keep = 1
    magnitudes = np.abs(weights).reshape(-1)
    jitter = rng.uniform(0.0, 1.0, size=total) * 1e-12
    order = np.argsort(magnitudes + jitter)
    pruned = weights.reshape(-1).copy()
    pruned[order[: total - keep]] = 0.0
    return pruned.reshape(weights.shape)


def _out_of_place_smooth(field: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0:
        return field
    size = 2 * radius + 1
    padded = np.pad(field, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    csum = np.cumsum(padded, axis=1)
    vert = csum[:, size - 1 :, :].copy()
    vert[:, 1:, :] -= csum[:, : -size, :]
    csum = np.cumsum(vert, axis=2)
    horiz = csum[:, :, size - 1 :].copy()
    horiz[:, :, 1:] -= csum[:, :, : -size]
    return horiz / (size * size)


def out_of_place_activations(
    spec: ConvLayerSpec,
    density: float,
    rng: np.random.Generator,
    correlation_radius: int = 1,
) -> np.ndarray:
    """Thresholded smoothed noise at ``density``, every step a new array."""
    shape = spec.input_shape
    magnitudes = np.abs(rng.normal(0.0, 1.0, size=shape)) + 1e-6
    if density >= 1.0:
        return magnitudes
    field = _out_of_place_smooth(rng.normal(0.0, 1.0, size=shape), correlation_radius)
    mask = field > np.quantile(field, 1.0 - density)
    want = int(round(density * magnitudes.size))
    have = int(mask.sum())
    flat_mask = mask.reshape(-1)
    if have > want:
        drop = rng.choice(np.flatnonzero(flat_mask), size=have - want, replace=False)
        flat_mask[drop] = False
    elif have < want:
        add = rng.choice(np.flatnonzero(~flat_mask), size=want - have, replace=False)
        flat_mask[add] = True
    return magnitudes * flat_mask.reshape(shape)

"""SCNN(oracle): the upper bound on sparse speedup.

The paper derives the oracle's performance "by dividing the number of
multiplication operations required for Cartesian product-based convolution
with the number of multipliers available on-chip" — i.e. a machine with
perfect load balance, no fragmentation, and no barriers, performing exactly
the multiplies whose two operands are both non-zero.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ConvLayerSpec
from repro.scnn.config import AcceleratorConfig, SCNN_CONFIG


def nonzero_multiplies(
    spec: ConvLayerSpec, weights: np.ndarray, activations: np.ndarray
) -> int:
    """Exact count of multiplies with both operands non-zero.

    These are the operand pairs of Cartesian-product convolution that reach a
    real output (padding excluded).  Rather than convolve the two non-zero
    masks, the count uses the integer identity

        Σ_{g,c,s,r} (Σ_{k∈g} Wmask[k,c,s,r]) · box[g,c,s,r]

    where ``box[g,c,s,r]``, the strided box sum of the zero-padded activation
    mask over the output window, counts the non-zero inputs that tap
    ``(s, r)`` of channel ``c`` in group ``g`` meets.  Every filter ``k`` of
    the group applies that tap to exactly those inputs, so this regroups the
    summed mask convolution; its terms are integers summed in int64, so the
    count is exact.
    """
    weight_mask = np.asarray(weights) != 0
    act_mask = np.asarray(activations) != 0
    groups, stride, pad = spec.groups, spec.stride, spec.padding
    num_k, c_per_group, filt_h, filt_w = weight_mask.shape
    # Non-zero weights per (group, channel, tap), over the group's filters.
    filters_per_tap = weight_mask.reshape(
        groups, num_k // groups, c_per_group, filt_h, filt_w
    ).sum(axis=1, dtype=np.int64)

    padded = np.pad(act_mask, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (padded.shape[1] - filt_h) // stride + 1
    out_w = (padded.shape[2] - filt_w) // stride + 1
    # Separable strided box sum: over the output columns for each column
    # offset r, then over the output rows for each row offset s.
    columns = np.stack(
        [
            padded[:, :, r : r + out_w * stride : stride].sum(axis=2, dtype=np.int64)
            for r in range(filt_w)
        ],
        axis=-1,
    )
    box = np.stack(
        [
            columns[:, s : s + out_h * stride : stride].sum(axis=1)
            for s in range(filt_h)
        ],
        axis=1,
    )
    return int((filters_per_tap.reshape(box.shape) * box).sum())


def oracle_cycles(
    spec: ConvLayerSpec,
    weights: np.ndarray,
    activations: np.ndarray,
    config: AcceleratorConfig = SCNN_CONFIG,
    *,
    products: int | None = None,
) -> int:
    """Cycles an oracular SCNN would need for one layer."""
    if products is None:
        products = nonzero_multiplies(spec, weights, activations)
    return max(1, -(-products // config.total_multipliers))

"""Lazy, picklable workload handles.

A :class:`WorkloadHandle` stands in for a :class:`~repro.nn.inference.LayerWorkload`
everywhere the simulators and experiments read one, but carries only the
*recipe* for the operand tensors — network name, seed, layer index, spec and
target densities — plus the densities that recipe yields.  The tensors
themselves are regenerated deterministically on first access
(``np.random.default_rng([seed, index])``, exactly as
:func:`repro.nn.inference.build_network_workloads` seeds each layer) and are
dropped again when the handle is pickled.

This is what keeps both the process-pool path and the on-disk cache cheap:
results cross process and disk boundaries at a few hundred bytes per layer
instead of tens of megabytes of activation tensors, while ablation studies
that do need the raw tensors (``handle.weights`` / ``handle.activations``)
still get bit-identical arrays on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.nn.densities import LayerSparsity
from repro.nn.inference import LayerWorkload, build_layer_workload
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import kept_count


@dataclass
class WorkloadHandle:
    """Slim stand-in for one layer's :class:`LayerWorkload`.

    Duck-type compatible with ``LayerWorkload`` for every attribute the
    simulators, experiments and benchmarks read (``spec``, ``target``,
    ``weights``, ``activations``, ``weight_density``, ``activation_density``,
    ``dense_multiplies``).

    The two densities are derived from the recipe, not measured: a
    synthesised tensor keeps exactly :func:`~repro.nn.pruning.kept_count`
    non-zeros, so each density is that count over the tensor's size — the
    same float ``count_nonzero / size`` gives once the tensors exist.
    """

    network_name: str
    seed: int
    index: int
    spec: ConvLayerSpec
    target: LayerSparsity
    weight_density: float = field(init=False)
    activation_density: float = field(init=False)
    _materialized: Optional[LayerWorkload] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        weights = self.spec.weight_count
        activations = self.spec.input_activation_count
        self.weight_density = (
            kept_count(self.target.weight_density, weights, minimum=1) / weights
        )
        self.activation_density = (
            kept_count(self.target.activation_density, activations) / activations
        )

    def materialize(self) -> LayerWorkload:
        """The full workload, regenerating the tensors if necessary."""
        if self._materialized is None:
            rng = np.random.default_rng([self.seed, self.index])
            self._materialized = build_layer_workload(
                self.network_name, self.spec, self.target, rng
            )
        return self._materialized

    # -- LayerWorkload duck-type surface ---------------------------------------

    @property
    def weights(self) -> np.ndarray:
        return self.materialize().weights

    @property
    def activations(self) -> np.ndarray:
        return self.materialize().activations

    @property
    def dense_multiplies(self) -> int:
        return self.spec.multiplies

    # -- pickling: never ship the tensors --------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_materialized"] = None
        return state

"""Bitwise pins of the cold path's fast implementations.

* The box-sum oracle (:func:`repro.scnn.oracle.nonzero_multiplies`) equals
  the conv-mask count of ``tests/_reference.py``.
* Partial-selection pruning (:func:`repro.nn.pruning.prune_to_density`)
  zeroes the same weights as the full-sort reference and leaves the RNG in
  the same state, so everything drawn after it is unchanged too.
* In-place activation synthesis
  (:func:`repro.nn.inference.generate_activations`) returns the same array
  and leaves the same RNG state as the out-of-place reference.
* A workload handle's recipe-derived densities equal ``count_nonzero / size``
  of the tensors it materialises, which is what lets
  :meth:`repro.engine.SimulationEngine.run_network` build and simulate every
  layer in a single pass.

Each is checked over a hypothesis sweep of layer shapes and densities and on
all 72 conv layers of the paper's three networks at seeds 0 and 1.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.serialization import simulation_payload
from repro.engine import SimulationEngine, WorkloadHandle
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import alexnet, googlenet, vggnet
from repro.nn.pruning import generate_dense_weights, kept_count, prune_to_density
from repro.scnn.oracle import nonzero_multiplies
from repro.scnn.simulator import simulate_network

from _reference import (
    argsort_prune_to_density,
    conv_mask_nonzero_multiplies,
    out_of_place_activations,
)

CATALOGUE = {"alexnet": alexnet, "googlenet": googlenet, "vggnet": vggnet}


@st.composite
def layer_specs(draw):
    groups = draw(st.sampled_from([1, 2, 4]))
    filter_height = draw(st.sampled_from([1, 3, 5]))
    filter_width = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.integers(min_value=0, max_value=3))
    extent = st.integers(
        min_value=max(1, max(filter_height, filter_width) - 2 * padding),
        max_value=14,
    )
    return ConvLayerSpec(
        "sweep",
        in_channels=groups * draw(st.integers(min_value=1, max_value=3)),
        out_channels=groups * draw(st.integers(min_value=1, max_value=4)),
        input_height=draw(extent),
        input_width=draw(extent),
        filter_height=filter_height,
        filter_width=filter_width,
        stride=draw(st.integers(min_value=1, max_value=4)),
        padding=padding,
        groups=groups,
    )


# Dense, tiny (a pruned tensor keeps its clamped single weight, activations
# keep none) and everything in between.
densities = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-9, max_value=1e-4),
    st.floats(min_value=0.01, max_value=1.0),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def assert_prune_matches_reference(weights, density, rng):
    reference_rng = copy.deepcopy(rng)
    fast = prune_to_density(weights, density, rng)
    reference = argsort_prune_to_density(weights, density, reference_rng)
    assert np.array_equal(fast, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def assert_handle_densities_measured(handle):
    weights, activations = handle.weights, handle.activations
    assert handle.weight_density == float(np.count_nonzero(weights)) / weights.size
    assert handle.activation_density == (
        float(np.count_nonzero(activations)) / activations.size
    )


@given(layer_specs(), densities, densities, seeds)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_conv_mask_reference(spec, wd, ad, seed):
    rng = np.random.default_rng(seed)
    weights = prune_to_density(generate_dense_weights(spec, rng), wd, rng)
    activations = generate_activations(spec, ad, rng)
    for acts in (activations, np.zeros(spec.input_shape)):
        assert nonzero_multiplies(spec, weights, acts) == (
            conv_mask_nonzero_multiplies(spec, weights, acts)
        )


@given(layer_specs(), densities, seeds)
@settings(max_examples=60, deadline=None)
def test_prune_matches_argsort_reference(spec, density, seed):
    rng = np.random.default_rng(seed)
    assert_prune_matches_reference(generate_dense_weights(spec, rng), density, rng)


@given(layer_specs(), densities, st.integers(min_value=0, max_value=2), seeds)
@settings(max_examples=60, deadline=None)
def test_activations_match_out_of_place_reference(spec, density, radius, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    activations = generate_activations(spec, density, rng, correlation_radius=radius)
    assert np.array_equal(
        activations, out_of_place_activations(spec, density, reference_rng, radius)
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(layer_specs(), densities, densities, seeds)
@settings(max_examples=60, deadline=None)
def test_recipe_densities_equal_measured(spec, wd, ad, seed):
    handle = WorkloadHandle("sweep", seed, 0, spec, LayerSparsity(wd, ad))
    assert_handle_densities_measured(handle)


def test_kept_count_clamps():
    assert kept_count(1.0, 10) == 10
    assert kept_count(1e-9, 10) == 0
    assert kept_count(1e-9, 10, minimum=1) == 1
    assert kept_count(0.25, 10) == 2  # round half to even, like round()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_catalogue_layers_match_references(name, seed):
    network = CATALOGUE[name]()
    sparsity = network_sparsity(network)
    for index, spec in enumerate(network.layers):
        target = sparsity[spec.name]
        handle = WorkloadHandle(network.name, seed, index, spec, target)
        # The reference synthesis, drawing from the same per-layer stream.
        rng = np.random.default_rng([seed, index])
        dense = generate_dense_weights(spec, rng)
        weights = argsort_prune_to_density(dense, target.weight_density, rng)
        activations = out_of_place_activations(spec, target.activation_density, rng)
        assert np.array_equal(handle.weights, weights)
        assert np.array_equal(handle.activations, activations)
        assert_handle_densities_measured(handle)
        assert nonzero_multiplies(spec, handle.weights, handle.activations) == (
            conv_mask_nonzero_multiplies(spec, handle.weights, handle.activations)
        )


@pytest.mark.parametrize("parallel", [None, 2])
def test_run_network_single_pass_matches_simulate_network(parallel):
    reference = simulation_payload(simulate_network(alexnet(), seed=1))
    engine = SimulationEngine(cache_dir=False)
    simulation = engine.run_network(alexnet(), seed=1, parallel=parallel)
    assert simulation_payload(simulation) == reference

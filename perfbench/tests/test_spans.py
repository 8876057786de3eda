"""The tracer attributes time to the right layer and restores the program."""

import time

from spans import Tracer


def test_self_time_excludes_traced_children_and_uninstall_restores():
    tracer = Tracer()

    def leaf(n):
        time.sleep(0.01)
        return n

    def outer():
        return traced_leaf(1) + traced_leaf(2)

    traced_leaf = tracer.wrap(leaf, "leaf", value_of=lambda a, k, r: float(r))
    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer() == 3
    assert tracer.calls("leaf") == 2 and tracer.total("leaf") == 3.0
    assert tracer.busy_s("leaf") >= 0.02
    assert tracer.self_s("outer") < tracer.busy_s("outer") - 0.019
    assert tracer.covered_s("outer") == tracer.busy_s("leaf")


def test_patch_function_rebinds_every_import_site():
    import repro.nn.inference as inference
    import repro.nn.pruning as pruning

    original = pruning.generate_pruned_weights
    assert inference.generate_pruned_weights is original
    tracer = Tracer()
    tracer.patch_function("repro.nn.pruning", "generate_pruned_weights", "nn.pruning")
    assert inference.generate_pruned_weights is not original
    assert pruning.generate_pruned_weights is inference.generate_pruned_weights
    tracer.uninstall()
    assert inference.generate_pruned_weights is original
    assert pruning.generate_pruned_weights is original


def test_first_call_is_the_earliest_call_not_the_longest():
    tracer = Tracer()
    traced_sleep = tracer.wrap(time.sleep, "sleep")
    traced_sleep(0.005)
    traced_sleep(0.03)
    first = min(tracer.spans, key=lambda span: span.start)
    assert tracer.first_call_s("sleep", "sleep") == first.duration < 0.03
    assert tracer.first_call_s("sleep", "other") == 0.0

"""Figure 1: per-layer weight/activation density and achievable work reduction.

The paper instruments pruned Caffe models to measure per-layer weight and
input-activation density, and plots the ideal remaining work (product of the
two densities).  Here the densities are *measured back* from the synthetic
workloads (pruned weights, ReLU-sparse activations) generated at the
calibrated targets, which doubles as a check that the generators hit their
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import DensityRow, average_work_reduction, density_table
from repro.analysis.reporting import format_table
from repro.engine import default_engine
from repro.experiments.common import EVALUATED_NETWORKS, cached_network


@dataclass
class DensityReport:
    """Figure 1 data of one network."""

    network: str
    rows: List[DensityRow]
    average_work_reduction: float


def run(networks: tuple = EVALUATED_NETWORKS, *, measured: bool = True) -> Dict[str, DensityReport]:
    """Per-layer density rows for every evaluated network.

    With ``measured=True`` (default) the densities are measured from the
    generated workload tensors; with ``measured=False`` the calibration table
    itself is reported.
    """
    reports: Dict[str, DensityReport] = {}
    # One engine pass simulates every network's layers, largest first across
    # the pool; Fig. 1 is the first experiment of ``repro all`` to need them,
    # and later figures hit the engine memo.
    simulations = (
        default_engine().run_networks(list(networks))
        if measured
        else [None] * len(networks)
    )
    for name, simulation in zip(networks, simulations):
        network = cached_network(name)
        if simulation is not None:
            workloads = [layer.workload for layer in simulation.layers]
            rows = density_table(network, workloads)
        else:
            rows = density_table(network)
        reports[network.name] = DensityReport(
            network=network.name,
            rows=rows,
            average_work_reduction=average_work_reduction(rows, network),
        )
    return reports


def main() -> str:
    sections = []
    for report in run().values():
        table_rows = [
            (
                row.layer,
                f"{row.weight_density:.2f}",
                f"{row.activation_density:.2f}",
                f"{row.work_fraction:.3f}",
                f"{row.work_reduction:.1f}x",
            )
            for row in report.rows
        ]
        table = format_table(
            ["Layer", "Density (W)", "Density (IA)", "Work fraction", "Work reduction"],
            table_rows,
            title=f"Figure 1: {report.network} density",
        )
        sections.append(
            table
            + f"\nNetwork average work reduction: {report.average_work_reduction:.1f}x"
        )
    output = "\n\n".join(sections)
    print(output)
    return output


if __name__ == "__main__":
    main()

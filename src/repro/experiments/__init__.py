"""The experiment harness: one module per paper table/figure.

Every experiment consumes a shared :class:`~repro.experiments.common.ExperimentContext`
(the suite compiled under each scheduler configuration, cached per scale)
and returns a :class:`~repro.experiments.report.ExperimentTable` whose rows
mirror the paper's. ``python -m repro <experiment>`` renders them; the
benchmarks under ``benchmarks/`` call the same entry points.
"""

from .common import ExperimentScale, ExperimentContext, SCALES
from .report import ExperimentTable

from . import table1, table2, table3, table4, table5, table6, table7, fig23, fig4

#: Registry: experiment id -> callable(context) -> ExperimentTable (or list).
EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "fig2": fig23.run_fig2,
    "fig3": fig23.run_fig3,
    "fig4": fig4.run,
}

__all__ = [
    "ExperimentScale",
    "ExperimentContext",
    "ExperimentTable",
    "SCALES",
    "EXPERIMENTS",
]

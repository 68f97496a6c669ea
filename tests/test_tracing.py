"""The benchmark tracer wraps package functions by module attribute.

A refactor that drops or renames one of those attributes would make
``benchmarks/run.py --trace 1`` fail; this test fails first. The tracer's
source is only read, never changed.
"""

import importlib
import runpy
from pathlib import Path

from rankgate.curation import CurationConfig, select_probes
from rankgate.experiment import (
    ConditionSpec,
    ExperimentPlan,
    load_plan_store,
    run_experiment,
)
from rankgate.synth import SynthConfig

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_binding_resolves():
    bindings = runpy.run_path(str(TRACING))["BINDINGS"]
    assert bindings
    for module_name, attr, _span, _count in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_counts_read_live_attributes():
    tracer_class = runpy.run_path(str(TRACING))["Tracer"]
    plan = ExperimentPlan(
        groups=("synth",),
        conditions=(ConditionSpec("clean"), ConditionSpec("noisy", 0.3)),
        methods=("threshold", "fusion"),
        synth=SynthConfig(n_identities=20, images_per_identity=5, dimension=16, rng_seed=5),
        target_fpir=0.02,
    )
    probes_per_cell = len(select_probes(load_plan_store(plan), CurationConfig(d_in=plan.d_in)))
    with tracer_class() as tracer:
        report = run_experiment(plan)
    assert not report.failures
    metrics = tracer.metrics()
    assert metrics["experiment.cells"] == 2
    # One fused_scores call per screen block of D = 16 probes, in each cell.
    assert metrics["baselines.fused_scores_calls"] == -(-probes_per_cell // 16) * 2
    assert metrics["curation.probes"] > 0

"""perfbench reaches into scvxkit by name: its tracer wraps each traced
function at every module attribute that binds it, and its workloads build
runs through cli.  These tests read perfbench and change nothing in it: the
names still resolve, and the spans still reach the evidence the CLI writes."""

import importlib.util
import sys
from pathlib import Path

from scvxkit import cli, diagnostics, loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_span_the_cli_evidence(tmp_path, monkeypatch):
    tracing = load("tracing", monkeypatch)
    workloads = load("workloads", monkeypatch)
    originals = (cli.execute_run, cli.run_diagnostics, loop.check_stationarity)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        workload = workloads.make_workloads(PERFBENCH.parent)["certify-bundled"]
        cases = {case.label: case for case in workload.build(0, tmp_path)}
        # toy-sharp-1d converges at radius 10.24, so its certificate probes.
        workload.run_op(cases["toy-sharp-1d"])
        assert cli.run_diagnostics is diagnostics.run_diagnostics
        assert diagnostics.check_stationarity is loop.check_stationarity
        assert cli.run_diagnostics is not originals[1]
    assert (cli.execute_run, cli.run_diagnostics, loop.check_stationarity) == originals
    assert diagnostics.run_diagnostics is originals[1]
    assert diagnostics.check_stationarity is originals[2]

    assert {"toy-sharp-1d", "convex-lqr-box", "double-integrator-obstacle"} <= set(cases)
    spans = tracer.spans
    parents = {}
    for name, _, _, parent, _ in spans:
        parents.setdefault(name, set()).add(spans[parent][0] if parent >= 0 else None)
    assert parents["diagnostics.check_stationarity"] == {"cli.execute_run"}
    assert parents["cli.run_diagnostics"] == {"cli.execute_run"}
    probes = [name for name in parents
              if name.removeprefix("diagnostics.") in tracing.DIAGNOSTIC_PROBES]
    assert len(probes) >= 6
    assert all(parents[name] == {"cli.run_diagnostics"} for name in probes)
    assert {"cli." + name for name in tracing.CLI_WRITERS} <= set(parents)

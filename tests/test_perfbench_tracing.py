"""The benchmark's tracer still finds every diagcert name it looks up.

perfbench/tracing.py wraps diagcert functions and methods by name and reads
its per-layer metrics back by name, so a rename inside the package would
make `perfbench/run.py --trace 1` fail with KeyError.  This test traces one
small analyze and resolves every metric.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_tracing():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_tracer_resolves_every_layer_metric(fixtures_dir):
    tracing = _import_tracing()
    import diagcert
    from diagcert import cli, jsonio, testkit  # noqa: F401  loaded by run.py
    tracer = tracing.Tracer()
    tracer.install(diagcert)
    try:
        request = cli.request_from_argv(
            ["analyze", "--input", str(fixtures_dir / "jordan_block.json"),
             "--json"])
        code, text = cli.run(request)
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(text)["schema"] == "diagcert/1"
    metrics = tracing.layer_metrics(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the overhead ratio from its own timings
    names = {m["name"] for m in declared} - {"trace.overhead_ratio"}
    assert names <= set(metrics)
    assert metrics["factorize.factor_calls"][0] >= 1
    assert metrics["groebner.groebner_basis_calls"][0] >= 1
    # uninstall put the originals back
    assert not hasattr(cli.run, "__wrapped__")
    assert not hasattr(diagcert.factorize.factor, "__wrapped__")

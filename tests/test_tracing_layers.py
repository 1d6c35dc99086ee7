"""Every per-layer name of the benchmark's tracer still sees calls.

``benchmark/tracing.py`` times layers by wrapping library functions it
finds by name; a function that is renamed or folded away is skipped
without a word, and its layer then reads 0 ms.  Five operations that
between them reach every layer run here under the tracer, and each layer
must record at least one call.
"""

import kriegerlab.cli

from conftest import SPEC_DIR, _load_benchmark_module

POWERS = str(SPEC_DIR / "powers_half.spec")

OPS = (
    ["classify", str(SPEC_DIR / "powers_half.factor"), "--format", "json"],
    ["classify", str(SPEC_DIR / "capped_half.spec"), "--format", "json"],
    ["report", POWERS, "--samples", "50", "--format", "json"],
    ["witness", POWERS, "--target", "1/4", "--eps", "1/100", "--format", "json"],
    ["oracle", POWERS, "--targets", "1/4", "--format", "json"],
)


def test_every_traced_layer_records_calls(monkeypatch, capsys):
    tracing = _load_benchmark_module(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module attribute, which the tracer wraps
        codes = [kriegerlab.cli.main(argv) for argv in OPS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(OPS)
    silent = [layer for layer in tracing.LAYERS if not tracer.calls[layer]]
    assert silent == []

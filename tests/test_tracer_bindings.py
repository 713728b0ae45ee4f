"""The benchmark tracer wraps ``nts`` functions by module and name; a renamed
or moved function would otherwise break only traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    missing = [
        f"{home}.{attr}"
        for home, attr, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []
    assert isinstance(importlib.import_module("nts.itcore").TypeWithDenominator, type)


def test_simulate_binds_correct_exponent_ml():
    # The benchmark's tracer test checks that installing the tracer rebinds
    # ``nts.simulate.correct_exponent_ml`` and uninstalling restores it.
    simulate = importlib.import_module("nts.simulate")
    assert simulate.correct_exponent_ml is importlib.import_module("nts.exponents").correct_exponent_ml


def test_cli_binds_correct_exponent_ml():
    # The same tracer test reads ``nts.cli.correct_exponent_ml`` too.
    cli = importlib.import_module("nts.cli")
    assert cli.correct_exponent_ml is importlib.import_module("nts.exponents").correct_exponent_ml

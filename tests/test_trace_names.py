"""The benchmark tracer in perfbench/spans.py patches package functions by
name; every name it lists must resolve, so that a rename fails here rather
than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    missing = []
    for module_name, attr, _ in traced:
        obj = importlib.import_module("ptfidelity." + module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert missing == []

"""The traced benchmark (`bench/layers.py`) wraps hawkmal functions by module
and attribute name.  Every pair it wraps must resolve, so that deleting or
renaming a wrapped name fails here rather than in a traced run."""
import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_bench_call_sites_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.syspath_prepend(BENCH)
    try:
        layers = importlib.import_module("layers")
        missing = [
            (module, attr)
            for module, attr, _ in layers._SITES
            if not hasattr(importlib.import_module(f"hawkmal.{module}"), attr)
        ]
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert layers._SITES and not missing

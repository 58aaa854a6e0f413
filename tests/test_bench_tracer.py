"""Contract between the library and the benchmark's tracer.

``benchmarks/tracing.py`` wraps library functions at the attribute their
callers look up, and ``Tracer.install`` raises KeyError when one is missing.
A refactor that stops calling such a function must still keep the attribute.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_site_is_an_attribute_of_its_owner(tracing):
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPPED
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_install_then_restore_puts_every_original_back(tracing):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

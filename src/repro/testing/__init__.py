"""Test-support subsystems that ship with the library.

Currently one member: :mod:`repro.testing.faults`, the deterministic
fault-injection registry the chaos and fault suites (``tests/service/
test_chaos.py``, ``tests/testing/test_faults.py``) use to exercise real
failure paths (worker crashes, dropped connections, corrupted cache
entries, broken process pools) without flaky sleeps or real network
partitions.  Nothing under :mod:`repro.bench` imports it: fault and
recovery numbers come from tests, not from a benchmark.

It lives under ``src/`` rather than ``tests/`` because the *production*
modules carry the instrumented fault points — a worker process spawned by
the sharded front-end must be able to import the registry and decide, from
``SEEDB_FAULTS`` in its environment, whether this request is the one that
kills it.
"""

from repro.testing.faults import (
    FaultError,
    FaultInjector,
    FaultRule,
    fire,
    get_injector,
    install,
    parse_spec,
    set_identity,
    uninstall,
)

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultRule",
    "fire",
    "get_injector",
    "install",
    "parse_spec",
    "set_identity",
    "uninstall",
]

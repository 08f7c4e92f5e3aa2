"""Unit tests for the deterministic fault-injection harness.

`repro.testing.faults` is the foundation the chaos tests stand on, so its
own semantics — spec parsing, hit counting, budgets, identity/route
filters, the cross-process ledger, and the effect helpers — are pinned
here without any server in the loop.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.testing import faults
from repro.testing.faults import (
    FaultError,
    FaultInjector,
    FaultRule,
    parse_spec,
)


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    """Each test starts with no injector and no fault environment."""
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)
    monkeypatch.delenv(faults.ENV_SEED, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


class TestParseSpec:
    def test_bare_point_gets_defaults(self):
        (rule,) = parse_spec("kill_worker")
        assert rule.point == "kill_worker"
        assert rule.after == 1 and rule.times == 1 and rule.p == 1.0
        assert rule.on is None and rule.route is None and rule.arg is None

    def test_full_rule_round_trips(self):
        (rule,) = parse_spec(
            "delay_response:after=3,times=2,on=worker-1,route=recommend,arg=0.25,p=0.5"
        )
        assert rule.after == 3 and rule.times == 2
        assert rule.on == "worker-1" and rule.route == "recommend"
        assert rule.arg == 0.25 and rule.p == 0.5

    def test_multiple_rules_split_on_semicolons(self):
        rules = parse_spec("kill_worker:after=2; drop_connection ;")
        assert [r.point for r in rules] == ["kill_worker", "drop_connection"]

    def test_unknown_point_raises(self):
        for point in ("explode_everything", "break_pool_worker"):
            with pytest.raises(FaultError, match="unknown fault point"):
                parse_spec(point)

    def test_unknown_key_raises(self):
        with pytest.raises(FaultError, match="unknown rule key"):
            parse_spec("kill_worker:wheen=3")

    def test_bad_value_raises(self):
        with pytest.raises(FaultError, match="bad value"):
            parse_spec("kill_worker:after=soon")

    def test_out_of_range_values_raise(self):
        with pytest.raises(FaultError):
            parse_spec("kill_worker:after=0")
        with pytest.raises(FaultError):
            parse_spec("kill_worker:p=1.5")


class TestFireSemantics:
    def test_after_counts_hits_and_times_bounds_firings(self):
        injector = FaultInjector(parse_spec("drop_connection:after=2,times=1"))
        assert injector.fire("drop_connection") is None
        assert injector.fire("drop_connection") is not None
        # Budget spent: never fires again.
        assert injector.fire("drop_connection") is None
        assert injector.hits("drop_connection") == 3

    def test_times_zero_means_unlimited(self):
        injector = FaultInjector(parse_spec("drop_connection:times=0"))
        assert all(injector.fire("drop_connection") for _ in range(5))

    def test_route_filter_matches_substring(self):
        injector = FaultInjector(parse_spec("kill_worker:route=recommend"))
        assert injector.fire("kill_worker", "/v1/healthz") is None
        assert (
            injector.fire("kill_worker", "/v1/sessions/s1/recommend")
            is not None
        )

    def test_identity_filter(self):
        injector = FaultInjector(parse_spec("kill_worker:on=worker-1"))
        assert injector.fire("kill_worker") is None
        injector.identity = "worker-0"
        assert injector.fire("kill_worker") is None
        injector.identity = "worker-1"
        assert injector.fire("kill_worker") is not None

    def test_points_count_independently(self):
        injector = FaultInjector(
            parse_spec("kill_worker:after=2;drop_connection:after=1")
        )
        assert injector.fire("drop_connection") is not None
        assert injector.fire("kill_worker") is None
        assert injector.fire("kill_worker") is not None

    def test_probability_is_seed_deterministic(self):
        def firings(seed):
            injector = FaultInjector(
                parse_spec("delay_response:p=0.5,times=0"), seed=seed
            )
            return [
                injector.fire("delay_response") is not None for _ in range(32)
            ]

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)
        assert any(firings(7)) and not all(firings(7))


class TestLedger:
    def test_budget_is_global_across_injectors(self, tmp_path):
        """Two injectors sharing a state file share one ``times`` budget —
        the model of a spec inherited by several worker processes."""
        state = str(tmp_path / "faults.state")
        spec = "kill_worker:times=1"
        first = FaultInjector(parse_spec(spec), state_path=state)
        second = FaultInjector(parse_spec(spec), state_path=state)
        assert first.fire("kill_worker") is not None
        # The second process sees the recorded firing and stays quiet.
        assert second.fire("kill_worker") is None

    def test_distinct_rules_have_distinct_tags(self, tmp_path):
        state = str(tmp_path / "faults.state")
        injector = FaultInjector(
            parse_spec("kill_worker:times=1;drop_connection:times=1"),
            state_path=state,
        )
        assert injector.fire("kill_worker") is not None
        assert injector.fire("drop_connection") is not None
        content = (tmp_path / "faults.state").read_text().splitlines()
        assert len(set(content)) == 2


class TestModuleRegistry:
    def test_fire_is_noop_without_installation(self):
        assert faults.fire("kill_worker") is None

    def test_install_and_uninstall(self):
        faults.install("drop_connection")
        assert faults.fire("drop_connection") is not None
        faults.uninstall()
        assert faults.fire("drop_connection") is None

    def test_env_auto_install(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "drop_connection:times=0")
        faults.uninstall()  # forget the resolved state
        assert faults.fire("drop_connection") is not None

    def test_malformed_env_spec_disables_quietly(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "not_a_point")
        faults.uninstall()
        assert faults.get_injector() is None
        assert faults.fire("kill_worker") is None

    def test_set_identity_applies_to_installed_injector(self):
        faults.install("kill_worker:on=worker-2")
        assert faults.fire("kill_worker") is None
        faults.set_identity("worker-2")
        assert faults.fire("kill_worker") is not None


class TestEffectHelpers:
    def test_maybe_delay_sleeps_the_configured_arg(self):
        faults.install("delay_response:arg=0.01")
        assert faults.maybe_delay("/v1/x") == 0.01
        assert faults.maybe_delay("/v1/x") == 0.0  # budget spent

    def test_maybe_drop(self):
        faults.install("drop_connection")
        assert faults.maybe_drop() is True
        assert faults.maybe_drop() is False

    def test_maybe_truncate_corrupts_the_file(self, tmp_path):
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"x" * 100)
        faults.install("truncate_l2_entry:arg=0.3")
        assert faults.maybe_truncate(victim) is True
        assert victim.stat().st_size == 30
        # Disarmed afterwards: the next write is untouched.
        victim.write_bytes(b"y" * 100)
        assert faults.maybe_truncate(victim) is False
        assert victim.stat().st_size == 100

    def test_rules_constructed_directly_validate(self):
        with pytest.raises(FaultError):
            FaultRule("kill_worker", times=-1)


def _fired_points() -> dict[str, set[str]]:
    """Map each point to the modules under ``repro`` whose code fires it.

    A site is a ``faults.fire(...)`` or ``faults.maybe_*(...)`` call.
    ``fire`` and ``maybe_exit`` name the point as their first argument; the
    other helpers fire the one point their own source names.
    """
    package = Path(faults.__file__).resolve().parent.parent
    sites: dict[str, set[str]] = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        if module == faults.__name__:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
            ):
                continue
            helper = node.func.attr
            if helper != "fire" and not helper.startswith("maybe_"):
                continue  # set_identity, install, ...: not a site
            if helper in ("fire", "maybe_exit"):
                point = node.args[0].value
            else:
                point = re.search(
                    r'fire\("(\w+)"', inspect.getsource(getattr(faults, helper))
                ).group(1)
            sites.setdefault(point, set()).add(module)
    return sites


@pytest.mark.parametrize("point", faults.POINTS)
def test_every_point_fires_in_the_module_the_catalogue_names(point):
    """A catalogued point has a live site where the docstring table says."""
    row = re.search(rf"``{point}``\s+:mod:`([\w.]+)`", faults.__doc__)
    assert row is not None, f"{point} has no row in the catalogue table"
    assert row.group(1) in _fired_points().get(point, set())

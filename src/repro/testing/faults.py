"""Deterministic, seeded fault injection for the serving tier.

Chaos testing a multi-process serving stack with ad-hoc ``kill -9`` calls
and sleeps produces exactly the flaky suites it is meant to prevent.  This
module gives the repository one structured alternative: **fault points**
compiled into the production code (the worker HTTP handler, the L2 file
cache) that are no-ops unless a
:class:`FaultInjector` is installed — either programmatically
(:func:`install`) or via the ``SEEDB_FAULTS`` environment variable, which
spawned worker processes inherit.

A spec is a semicolon-separated list of rules::

    SEEDB_FAULTS="kill_worker:on=worker-1,route=recommend,after=3"
    SEEDB_FAULTS="delay_response:arg=0.05,times=0;drop_connection:after=2"

Each rule is ``<point>[:key=value,...]`` with keys:

``after``
    Fire on the Nth matching hit of the point in this process (1-based
    counter; default 1 — the first hit).
``times``
    How many firings before the rule disarms (default 1; ``0`` means
    unlimited).  With a state file (below) the budget is **global across
    processes** — the canonical "kill exactly one worker, once" chaos run.
``on``
    Only fire in a process whose :func:`set_identity` matches (the
    front-end names its workers ``worker-<index>``).
``route``
    Only count hits whose ``context`` string contains this substring
    (HTTP fault points pass the request path).
``arg``
    Float argument — seconds for ``delay_response``, fraction of the file
    to keep for ``truncate_l2_entry``.
``p``
    Probability in ``[0, 1]`` that a matching hit fires, drawn from the
    injector's seeded RNG (deterministic for a fixed seed and hit
    sequence).  Default 1.0 — purely counter-based, the CI-safe mode.

The known points (sites live in the named modules):

==================== =====================================================
``kill_worker``      :mod:`repro.service.server` — ``os._exit`` mid-request
``drop_connection``  :mod:`repro.service.server` — close without replying
``delay_response``   :mod:`repro.service.server` — sleep before handling
``truncate_l2_entry`` :mod:`repro.core.cache` — corrupt an L2 file on write
==================== =====================================================

Cross-process budgets: because every worker parses the same spec, a
``times=1`` kill rule would otherwise fire once *per worker* (and again in
every supervisor-respawned replacement).  Setting ``SEEDB_FAULTS_STATE``
to a file path (or a ``state=`` key in the spec) makes firings append one
line to that file under ``O_APPEND`` (atomic for short writes), and the
``times`` budget counts the file's lines for that rule — so "kill one
worker, once, fleet-wide" is expressible and a respawned worker does not
re-die.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import ReproError

#: Environment variable holding the fault spec (inherited by spawn()ed
#: worker processes, which auto-install from it on first fault-point hit).
ENV_SPEC = "SEEDB_FAULTS"
#: Environment variable naming the shared cross-process firing ledger.
ENV_STATE = "SEEDB_FAULTS_STATE"
#: Environment variable seeding the injector's RNG (default 0).
ENV_SEED = "SEEDB_FAULTS_SEED"

#: The exit code a ``kill_worker`` firing dies with — distinguishable from
#: a normal crash in supervisor logs.
KILL_EXIT_CODE = 117

#: The complete fault-point catalogue; a spec naming anything else is a
#: configuration error surfaced at install time, not a silent no-op.
POINTS = (
    "kill_worker",
    "drop_connection",
    "delay_response",
    "truncate_l2_entry",
)


class FaultError(ReproError):
    """A fault spec is malformed (unknown point, bad key, bad value)."""


@dataclass
class FaultRule:
    """One armed fault: when a point's hit counter matches, it fires."""

    point: str
    after: int = 1
    times: int = 1
    on: str | None = None
    route: str | None = None
    arg: float | None = None
    p: float = 1.0
    #: Process-local firings of this rule (the no-state-file budget).
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        """Validate the rule at construction (fail at install, not at fire)."""
        if self.point not in POINTS:
            raise FaultError(
                f"unknown fault point {self.point!r}; known: {POINTS}"
            )
        if self.after < 1:
            raise FaultError(f"after must be >= 1, got {self.after}")
        if self.times < 0:
            raise FaultError(f"times must be >= 0, got {self.times}")
        if not 0.0 <= self.p <= 1.0:
            raise FaultError(f"p must be in [0, 1], got {self.p}")

    @property
    def ledger_tag(self) -> str:
        """The line this rule appends to the state file per firing."""
        return f"{self.point}:{self.after}"


def parse_spec(spec: str) -> list[FaultRule]:
    """Parse a ``SEEDB_FAULTS`` spec string into rules.

    Raises :class:`FaultError` on anything unrecognized — a chaos run with
    a typoed spec must fail loudly, not silently inject nothing.
    """
    rules: list[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, rest = chunk.partition(":")
        kwargs: dict[str, object] = {}
        if rest:
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep:
                    raise FaultError(f"bad rule key {pair!r} in {chunk!r}")
                try:
                    if key in ("after", "times"):
                        kwargs[key] = int(value)
                    elif key in ("arg", "p"):
                        kwargs[key] = float(value)
                    elif key in ("on", "route"):
                        kwargs[key] = value.strip()
                    else:
                        raise FaultError(
                            f"unknown rule key {key!r} in {chunk!r}"
                        )
                except ValueError:
                    raise FaultError(
                        f"bad value for {key!r} in {chunk!r}: {value!r}"
                    ) from None
        rules.append(FaultRule(point.strip(), **kwargs))  # type: ignore[arg-type]
    return rules


class FaultInjector:
    """Holds armed rules plus per-point hit counters for this process.

    Deterministic by construction: firing depends only on the per-point
    hit counter, the rule parameters, the (optional) shared ledger, and —
    only when ``p < 1`` — a seeded RNG, never on wall-clock time.
    """

    def __init__(
        self,
        rules: list[FaultRule],
        seed: int = 0,
        state_path: str | None = None,
    ) -> None:
        """Arm ``rules``; ``state_path`` is the cross-process ledger."""
        self.rules = rules
        self.state_path = state_path
        self._rng = random.Random(seed)
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        self.identity: str | None = None

    # ---------------------------------------------------------------- #
    # ledger (cross-process firing budget)
    # ---------------------------------------------------------------- #

    def _ledger_count(self, tag: str) -> int:
        """Global firings of ``tag`` recorded in the state file."""
        if self.state_path is None:
            return 0
        try:
            with open(self.state_path, "r", encoding="utf-8") as handle:
                return sum(1 for line in handle if line.strip() == tag)
        except OSError:
            return 0

    def _ledger_record(self, tag: str) -> None:
        """Append one firing of ``tag`` (O_APPEND: atomic short write)."""
        if self.state_path is None:
            return
        try:
            fd = os.open(
                self.state_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, (tag + "\n").encode())
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - ledger is best-effort
            pass

    # ---------------------------------------------------------------- #
    # the hot path
    # ---------------------------------------------------------------- #

    def fire(self, point: str, context: str = "") -> FaultRule | None:
        """One hit of ``point``; returns the rule to apply, or None.

        Increments the per-point counter once per call (shared by every
        rule on that point, so ``after`` values from one spec compose
        predictably), then returns the first armed rule whose filters
        match.  The returned rule has already been charged against its
        budget — the caller's only job is to apply the effect.
        """
        matched: FaultRule | None = None
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            for rule in self.rules:
                if rule.point != point:
                    continue
                if rule.on is not None and rule.on != self.identity:
                    continue
                if rule.route is not None and rule.route not in context:
                    continue
                if count < rule.after:
                    continue
                if rule.times:
                    fired = max(rule.fired, self._ledger_count(rule.ledger_tag))
                    if fired >= rule.times:
                        continue
                if rule.p < 1.0 and self._rng.random() >= rule.p:
                    continue
                rule.fired += 1
                self._ledger_record(rule.ledger_tag)
                matched = rule
                break
        return matched

    def hits(self, point: str) -> int:
        """How many times ``point`` was hit in this process (fired or not)."""
        with self._lock:
            return self._hits.get(point, 0)


# ------------------------------------------------------------------ #
# module-level registry (what the fault points consult)
# ------------------------------------------------------------------ #

#: None = not yet resolved from the environment; False = resolved, no
#: faults configured (the permanent fast path); FaultInjector = armed.
_injector: FaultInjector | None | bool = None
_injector_lock = threading.Lock()
_identity: str | None = None


def install(
    spec: str | list[FaultRule],
    seed: int | None = None,
    state_path: str | None = None,
) -> FaultInjector:
    """Arm an injector for this process (replacing any previous one)."""
    global _injector
    rules = parse_spec(spec) if isinstance(spec, str) else list(spec)
    if seed is None:
        seed = int(os.environ.get(ENV_SEED, "0") or 0)
    if state_path is None:
        state_path = os.environ.get(ENV_STATE) or None
    injector = FaultInjector(rules, seed=seed, state_path=state_path)
    injector.identity = _identity
    with _injector_lock:
        _injector = injector
    return injector


def uninstall() -> None:
    """Disarm fault injection (and forget the env resolution)."""
    global _injector
    with _injector_lock:
        _injector = None if os.environ.get(ENV_SPEC) else False


def set_identity(name: str) -> None:
    """Name this process for ``on=`` rule filters (e.g. ``worker-1``)."""
    global _identity
    _identity = name
    with _injector_lock:
        if isinstance(_injector, FaultInjector):
            _injector.identity = name


def get_injector() -> FaultInjector | None:
    """The active injector, auto-installed from ``SEEDB_FAULTS`` once.

    The common case — no faults configured — costs one global read after
    the first call resolves the environment, so instrumented production
    paths stay effectively free.
    """
    global _injector
    found = _injector
    if found is None:
        spec = os.environ.get(ENV_SPEC)
        if spec:
            try:
                return install(spec)
            except FaultError:
                # A malformed env spec in a *worker* must not take the
                # whole service down; disable and let the parent's own
                # install() (which raises) report the problem.
                with _injector_lock:
                    _injector = False
                return None
        with _injector_lock:
            _injector = False
        return None
    return found if isinstance(found, FaultInjector) else None


def fire(point: str, context: str = "") -> FaultRule | None:
    """Hit ``point``; returns the matched rule (already budgeted) or None."""
    injector = get_injector()
    if injector is None:
        return None
    return injector.fire(point, context)


# ------------------------------------------------------------------ #
# effect helpers (what the instrumented sites call)
# ------------------------------------------------------------------ #


def maybe_exit(point: str, context: str = "") -> None:
    """Die instantly (``os._exit``) when ``point`` fires.

    ``os._exit`` (not ``sys.exit``) so no ``finally`` blocks, atexit
    hooks, or HTTP framing run — the honest model of a SIGKILLed or
    OOM-killed process.
    """
    if fire(point, context) is not None:
        os._exit(KILL_EXIT_CODE)


def maybe_delay(context: str = "") -> float:
    """Sleep when ``delay_response`` fires; returns the seconds slept."""
    rule = fire("delay_response", context)
    if rule is None:
        return 0.0
    seconds = rule.arg if rule.arg is not None else 0.05
    time.sleep(seconds)
    return seconds


def maybe_drop(context: str = "") -> bool:
    """True when ``drop_connection`` fires (the site closes the socket)."""
    return fire("drop_connection", context) is not None


def maybe_truncate(path: os.PathLike | str, context: str = "") -> bool:
    """Truncate the file at ``path`` when ``truncate_l2_entry`` fires.

    Keeps ``arg`` (default 0.5) of the file's bytes — a torn write /
    partial disk flush, the exact corruption the L2's sha256 trailer must
    catch.  Returns True when the truncation happened.
    """
    rule = fire("truncate_l2_entry", context)
    if rule is None:
        return False
    keep = rule.arg if rule.arg is not None else 0.5
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(int(size * keep), 1))
    except OSError:  # pragma: no cover - corruption is best-effort
        return False
    return True


__all__ = [
    "ENV_SEED",
    "ENV_SPEC",
    "ENV_STATE",
    "KILL_EXIT_CODE",
    "POINTS",
    "FaultError",
    "FaultInjector",
    "FaultRule",
    "fire",
    "get_injector",
    "install",
    "maybe_delay",
    "maybe_drop",
    "maybe_exit",
    "maybe_truncate",
    "parse_spec",
    "set_identity",
    "uninstall",
]

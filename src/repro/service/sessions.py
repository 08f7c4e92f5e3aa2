"""Analyst sessions: the serving layer's unit of interactive exploration.

The VLDB paper frames SeeDB as middleware an analyst converses with: issue
a query, look at the recommended visualizations, drill into the most
surprising one, repeat.  This module holds both halves of that loop:

* :class:`Session` / :class:`SessionStore` — the server-side record of one
  analyst's step sequence (thread-safe; sessions are created by
  ``POST /sessions`` and appended to by every recommend call).
* :class:`AnalystDrillDown` — a *simulated* analyst that replays the loop
  against the JSON API.  It reuses the §6.2 user-study behavioural model
  (:func:`repro.study.sessions.bookmark_probability` and the observed
  examined-chart counts), so the service benchmark and the user study
  share one mechanism: examine the ranked views top-down, bookmark with
  probability ``sigmoid((utility - threshold) / temperature)``, then add
  the bookmarked view's most deviating group as a new predicate clause.

Consecutive steps of one session — and the same step across *different*
sessions replaying the same exploration — share almost all of their view
queries, which the cross-session :class:`~repro.core.cache.ViewResultCache`
serves when the result cache is on.  On the serving default with it off, the
engine's held group-bys serve them: every step's target side is a slice of a
held ``GROUP BY`` of the step's target columns and the view's dimension.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ServiceError
from repro.study.sessions import (
    SEEDB_VIEWS_MEAN,
    SEEDB_VIEWS_SD,
    bookmark_probability,
)

#: Sessions a worker's :class:`SessionStore` — and the front end's affinity
#: map over it — keep: past this, the least recently used one is dropped
#: and its id answers 404 ``unknown_session``.
MAX_SESSIONS = 4096

#: A conjunction of equality clauses, the JSON API's predicate shape.
TargetClauses = tuple[tuple[str, object], ...]


def clauses_from_payload(raw: object) -> TargetClauses:
    """Validate and normalize a request's ``target`` field into clauses.

    Accepts a single ``{"column": ..., "value": ...}`` object or a list of
    them; raises :class:`~repro.exceptions.ServiceError` (HTTP 400) on any
    other shape.  Values must be JSON scalars (str/int/float/bool).
    """
    if isinstance(raw, Mapping):
        raw = [raw]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ServiceError("'target' must be an object or a list of objects")
    clauses: list[tuple[str, object]] = []
    for item in raw:
        if not isinstance(item, Mapping) or "column" not in item or "value" not in item:
            raise ServiceError(
                "each target clause needs 'column' and 'value' fields"
            )
        column, value = item["column"], item["value"]
        if not isinstance(column, str):
            raise ServiceError(f"target column must be a string, got {column!r}")
        if not isinstance(value, (str, int, float, bool)):
            raise ServiceError(
                f"target value for {column!r} must be a JSON scalar, got {value!r}"
            )
        clauses.append((column, value))
    if not clauses:
        raise ServiceError("'target' must contain at least one clause")
    return tuple(clauses)


@dataclass(frozen=True)
class SessionStep:
    """One recommend request/response pair recorded in a session."""

    index: int
    target: TargetClauses
    k: int
    strategy: str
    #: ``(dimension, measure, func)`` view keys, ranked best first.
    selected: tuple[tuple[str, str, str], ...]
    cache_hits: int
    cache_misses: int
    wall_seconds: float

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (``GET /sessions/<id>``)."""
        return {
            "index": self.index,
            "target": [{"column": c, "value": v} for c, v in self.target],
            "k": self.k,
            "strategy": self.strategy,
            "selected": [list(key) for key in self.selected],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class Session:
    """One analyst's exploration session over one dataset."""

    session_id: str
    dataset: str
    store: str
    metric: str
    created_unix: float
    steps: list[SessionStep] = field(default_factory=list)
    #: Dataset row count at this analyst's last visit (creation or last
    #: recommend step) — the baseline for "changed since last visit"
    #: diffs when the dataset is appended to between steps.
    last_seen_rows: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, step: SessionStep) -> SessionStep:
        """Append one completed step, assigning its index atomically.

        Concurrent recommend calls on one session are raced by design
        (ThreadingHTTPServer), so the step's ``index`` field is stamped
        here, under the session lock — the value the caller passed in is
        a placeholder.  Returns the stamped step.
        """
        with self._lock:
            step = replace(step, index=len(self.steps))
            self.steps.append(step)
        return step

    def data_diff(self, n_rows: int) -> dict[str, object]:
        """Advance the last-visit marker; return the change summary.

        Called with the dataset's current row count on every recommend
        step.  The returned dict tells the analyst whether the data grew
        since they last looked — the serving-layer surface of the
        append/delta-refresh path (the views they see were carry-merged
        over exactly ``new_rows`` fresh rows, not recomputed).
        """
        with self._lock:
            previous = self.last_seen_rows
            self.last_seen_rows = n_rows
        return {
            "n_rows": n_rows,
            "new_rows": max(0, n_rows - previous),
            "changed": n_rows != previous,
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (``GET /sessions/<id>``)."""
        with self._lock:
            steps = list(self.steps)
            last_seen = self.last_seen_rows
        return {
            "session_id": self.session_id,
            "dataset": self.dataset,
            "store": self.store,
            "metric": self.metric,
            "created_unix": self.created_unix,
            "last_seen_rows": last_seen,
            "steps": [step.as_dict() for step in steps],
        }


class SessionStore:
    """Thread-safe registry of the :data:`MAX_SESSIONS` most recently used sessions."""

    def __init__(self) -> None:
        """Create an empty store."""
        #: Least recently used first.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._lock = threading.Lock()

    def create(
        self, dataset: str, store: str, metric: str, n_rows: int = 0
    ) -> Session:
        """Open a new session over ``dataset`` and return it.

        ``n_rows`` seeds the session's last-visit row marker so the first
        recommend step reports ``changed`` only if the dataset actually
        grew after the session opened.
        """
        session = Session(
            session_id=uuid.uuid4().hex[:16],
            dataset=dataset,
            store=store,
            metric=metric,
            created_unix=time.time(),
            last_seen_rows=n_rows,
        )
        with self._lock:
            self._sessions[session.session_id] = session
            if len(self._sessions) > MAX_SESSIONS:
                self._sessions.popitem(last=False)
        return session

    def get(self, session_id: str) -> Session:
        """Look up a session; unknown ids raise :class:`ServiceError` (404)."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                self._sessions.move_to_end(session_id)
        if session is None:
            raise ServiceError(
                f"unknown session {session_id!r}",
                status=404,
                code="unknown_session",
            )
        return session

    def __len__(self) -> int:
        """Number of live sessions."""
        with self._lock:
            return len(self._sessions)


class AnalystDrillDown:
    """A simulated analyst replaying a drill-down loop against the API.

    Behaviour per step (the §6.2 model, seeded and deterministic given the
    responses): draw an examined-chart budget around the study's observed
    SEEDB mean, walk the ranked views top-down, bookmark each with
    :func:`~repro.study.sessions.bookmark_probability`, and drill into the
    first bookmarked view whose dimension the current target does not
    constrain yet — adding ``dimension = <view's most deviating group>``
    as a new clause.  If nothing gets bookmarked the analyst still drills
    into the best unconstrained view, so scripts always make progress.

    Example::

        analyst = AnalystDrillDown([("marital_status", "Unmarried")], k=5)
        request = analyst.first_request()
        while request is not None:
            response = post_recommend(session_id, request)   # HTTP call
            request = analyst.next_request(response)
    """

    def __init__(
        self,
        base_target: Sequence[tuple[str, object]],
        k: int = 5,
        n_steps: int = 3,
        strategy: str = "sharing",
        seed: int = 0,
        threshold: float = 0.05,
        temperature: float = 0.02,
    ) -> None:
        """Set up the script: starting clauses, depth, and behaviour seed."""
        if n_steps < 1:
            raise ServiceError(f"n_steps must be >= 1, got {n_steps}")
        self.target: list[tuple[str, object]] = list(base_target)
        self.k = k
        self.n_steps = n_steps
        self.strategy = strategy
        self.threshold = threshold
        self.temperature = temperature
        self._rng = np.random.default_rng(seed)
        self._steps_issued = 0

    def _request(self) -> dict[str, object]:
        """The JSON body for the current target."""
        self._steps_issued += 1
        return {
            "target": [{"column": c, "value": v} for c, v in self.target],
            "k": self.k,
            "strategy": self.strategy,
        }

    def first_request(self) -> dict[str, object]:
        """The opening request (the analyst's initial query Q)."""
        if self._steps_issued:
            raise ServiceError("first_request() may only be called once")
        return self._request()

    def next_request(self, response: Mapping[str, object]) -> dict[str, object] | None:
        """Drill into ``response`` and return the next request, or None.

        ``response`` is the JSON body of the previous recommend call; None
        means the script is finished (``n_steps`` reached or no view left
        to drill into).
        """
        if self._steps_issued >= self.n_steps:
            return None
        views = response.get("views")
        if not isinstance(views, list) or not views:
            return None
        constrained = {column for column, _ in self.target}
        n_examined = max(
            1, int(round(self._rng.normal(SEEDB_VIEWS_MEAN, SEEDB_VIEWS_SD)))
        )
        chosen: Mapping[str, object] | None = None
        fallback: Mapping[str, object] | None = None
        for view in views[:n_examined]:
            if view["dimension"] in constrained:
                continue
            if fallback is None:
                fallback = view
            probability = bookmark_probability(
                float(view["utility"]), self.threshold, self.temperature
            )
            if self._rng.random() < probability:
                chosen = view
                break
        chosen = chosen or fallback
        if chosen is None or chosen.get("top_group") is None:
            return None
        self.target.append((str(chosen["dimension"]), chosen["top_group"]))
        return self._request()

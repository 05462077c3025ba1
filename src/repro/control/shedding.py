"""Pattern-aware load shedding (overload admission control).

Under sustained overload a CEP system must drop input; *which* input it
drops decides how much recall survives.  :class:`LoadShedder` sits in
front of the splitter and, whenever the in-flight backlog exceeds its
bound, vetoes events before they are routed:

``tail`` policy
    The classic baseline: once overloaded, shed every sheddable arrival
    until the backlog drains below the bound.  Blind to the pattern, so
    it drops events that would have completed matches as readily as
    events nothing was waiting for.

``pattern`` policy
    Protect events that can *extend active partial matches* — an event of
    stage ``j >= 1``'s type whose consuming agent currently holds partial
    matches (buffered in its MB or queued on its MS) is hot: dropping it
    forfeits work the system already paid for.  Cold events — stage-0
    seeds (each one *starts* new work, amplifying overload) and stage
    ``>= 1`` events with no waiting partials — are shed first.  Only past
    a hard ceiling (twice the bound) does the policy shed hot events too.

Both policies always admit guard/negation types: a negated event's job is
to *kill* candidate matches, so shedding it would turn false positives
into reported matches — shedding must only lose recall, never precision.
Both also never shed when ``bound == 0`` (disabled).

The shedder counts everything it drops (``shed_total``, ``shed_by_type``)
so the driver can report recall honestly: ``matches / reference matches``
where the reference is an unshedded run of the same stream.
"""

from __future__ import annotations

from repro.core.events import Event

__all__ = ["LoadShedder", "SHED_POLICIES"]

SHED_POLICIES = ("tail", "pattern")

#: Overload multiple of the bound past which even hot events are shed.
_HARD_CEILING_FACTOR = 2


class LoadShedder:
    """Admission controller consulted by the splitter for every event.

    ``guard_types``
        Event types bound by negation guards — never shed.
    ``seed_types``
        Stage-0 types: each admitted one opens a new partial match.
    ``consumers``
        ``type name -> AgentCore`` for stage ``>= 1`` event types (for a
        fused agent, the part consuming the type); used by
        the pattern policy's hot/cold test.  Foreign types (in none of the
        three sets) are dropped by the splitter anyway and never reach the
        shedder's counters.
    """

    def __init__(
        self,
        *,
        bound: int,
        policy: str = "pattern",
        guard_types: frozenset[str] = frozenset(),
        seed_types: frozenset[str] = frozenset(),
        consumers: dict[str, object] | None = None,
    ) -> None:
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shedding policy {policy!r}; pick from {SHED_POLICIES}"
            )
        if bound < 0:
            raise ValueError(f"shed bound must be >= 0, got {bound}")
        self.bound = bound
        self.policy = policy
        self.guard_types = guard_types
        self.seed_types = seed_types
        self.consumers = consumers if consumers is not None else {}
        self.backlog = 0
        self.shed_total = 0
        self.shed_by_type: dict[str, int] = {}
        #: SLO pressure valve: when the control plane observes a latency /
        #: throughput SLO breach it sets this, halving the effective
        #: overload bound so shedding starts earlier.  The hard ceiling
        #: stays anchored to the configured bound — pressure makes the
        #: shedder *eager*, never *blind*.
        self.pressure = False

    def note_backlog(self, in_flight: int) -> None:
        """The driver reports the current in-flight item count before each
        admission decision."""
        self.backlog = in_flight

    @property
    def effective_bound(self) -> int:
        if self.pressure and self.bound > 0:
            return max(1, self.bound // 2)
        return self.bound

    @property
    def overloaded(self) -> bool:
        return self.bound > 0 and self.backlog > self.effective_bound

    @property
    def critical(self) -> bool:
        return self.bound > 0 and self.backlog > _HARD_CEILING_FACTOR * self.bound

    def should_shed(self, event: Event) -> bool:
        """Decide (and record) whether to drop *event* before routing."""
        if not self.overloaded:
            return False
        name = event.type.name
        if name in self.guard_types:
            # Dropping a negated event can only create false matches.
            return False
        if self.policy == "tail" or self.critical:
            return self._record(name)
        # Pattern policy: protect events that extend live partial matches.
        if name in self.seed_types:
            return self._record(name)
        consumer = self.consumers.get(name)
        if consumer is not None and self._consumer_hot(consumer):
            return False
        return self._record(name)

    @staticmethod
    def _consumer_hot(agent) -> bool:
        """Does the consuming agent hold partial matches an event of its
        type could extend (buffered MB or queued MS work)?"""
        return agent.match_buffer.total_items() > 0 or len(agent.ms) > 0

    def _record(self, name: str) -> bool:
        self.shed_total += 1
        self.shed_by_type[name] = self.shed_by_type.get(name, 0) + 1
        return True

    def counts(self) -> dict:
        return {
            "total": self.shed_total,
            "by_type": dict(sorted(self.shed_by_type.items())),
            "policy": self.policy,
            "bound": self.bound,
        }

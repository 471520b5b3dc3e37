"""The rules layer: scheduling and execution (thesis §5.2.2, §6.1.6).

The :class:`RuleEngine` subscribes to the schema's event bus.  When an
event matches a rule's event spec and the rule's condition of
applicability holds:

* **immediate** rules evaluate right away — a violation with
  ``OnViolation.ABORT`` raises :class:`ConstraintViolation` out of the
  mutating call, vetoing the change (``before_*`` events) or rolling back
  the single assignment (``after_update``, handled by the object layer);
* **deferred** rules are queued and evaluated at ``BEFORE_COMMIT``; a
  violation aborts the whole transaction automatically (the thesis's
  "automatic actions (e.g. transaction abortion)").

Violation handling follows the rule's :class:`OnViolation`: ABORT raises,
WARN records, INTERACTIVE consults a registered handler, REPAIR runs the
action and re-checks once.  A cascade counter guards against rules whose
actions re-trigger rules forever (§5.2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.events import Event, EventKind
from ..core.schema import Schema
from ..errors import ConstraintViolation, RuleCascadeError, RuleError
from ..telemetry import DISABLED, Telemetry
from .rule import Mode, OnViolation, Rule, RuleContext, RuleKind

#: Interactive handler: return True to accept the change anyway.
InteractiveHandler = Callable[[Rule, RuleContext], bool]

_CASCADE_LIMIT = 64


@dataclass
class Violation:
    """A recorded (non-fatal) violation."""

    rule_name: str
    message: str
    event_kind: str
    target_oid: int | None = None


@dataclass
class _DeferredEntry:
    rule: Rule
    context: RuleContext


class RuleEngine:
    """Rule registry + scheduler bound to one schema."""

    def __init__(
        self, schema: Schema, telemetry: Telemetry | None = None
    ) -> None:
        self.schema = schema
        self._rules: dict[str, Rule] = {}
        # Stack of deferred queues: index 0 is the implicit session's
        # queue; a managed transaction pushes its own scope around its
        # replay so only *its* deferred checks run at its commit.
        self._deferred_stack: list[list[_DeferredEntry]] = [[]]
        self._warnings: list[Violation] = []
        self._interactive_handler: InteractiveHandler | None = None
        self._depth = 0
        self._running_deferred = False
        self._unsubscribe = schema.events.subscribe(self._on_event)
        #: Telemetry facade (one branch per hook when disabled).
        self.telemetry = telemetry if telemetry is not None else DISABLED

    # -- registry -----------------------------------------------------------

    def register(self, rule: Rule) -> Rule:
        if rule.name in self._rules:
            raise RuleError(f"rule {rule.name!r} already registered")
        self._rules[rule.name] = rule
        if rule.target_class and self.schema.has_class(rule.target_class):
            self.schema.get_class(rule.target_class).constraints.append(rule)
        return rule

    def register_all(self, rules: list[Rule]) -> None:
        for rule in rules:
            self.register(rule)

    def unregister(self, name: str) -> None:
        rule = self._rules.pop(name, None)
        if rule is not None and rule.target_class and self.schema.has_class(
            rule.target_class
        ):
            constraints = self.schema.get_class(rule.target_class).constraints
            if rule in constraints:
                constraints.remove(rule)

    def get(self, name: str) -> Rule:
        try:
            return self._rules[name]
        except KeyError:
            raise RuleError(f"unknown rule {name!r}") from None

    def rules(self) -> list[Rule]:
        return sorted(self._rules.values(), key=lambda r: (r.priority, r.name))

    def set_interactive_handler(self, handler: InteractiveHandler | None) -> None:
        """Install the handler consulted by INTERACTIVE rules."""
        self._interactive_handler = handler

    @property
    def warnings(self) -> list[Violation]:
        return list(self._warnings)

    def clear_warnings(self) -> None:
        self._warnings.clear()

    def detach(self) -> None:
        """Stop listening to the schema's events."""
        self._unsubscribe()

    # -- deferred-queue scoping (repro.concurrency) -------------------------

    @property
    def _deferred(self) -> list[_DeferredEntry]:
        return self._deferred_stack[-1]

    @_deferred.setter
    def _deferred(self, value: list[_DeferredEntry]) -> None:
        self._deferred_stack[-1] = value

    def push_deferred_scope(self) -> None:
        """Open a fresh deferred queue for one managed transaction."""
        self._deferred_stack.append([])

    def pop_deferred_scope(self) -> None:
        if len(self._deferred_stack) > 1:
            self._deferred_stack.pop()

    @property
    def deferred_depth(self) -> int:
        """Entries queued in the current (innermost) deferred scope."""
        return len(self._deferred)

    # -- event dispatch -----------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        if self.schema.events.loading:
            return  # a bulk load: rules re-audit on request
        if event.kind is EventKind.BEFORE_COMMIT:
            self._run_deferred()
            return
        if event.kind in (EventKind.AFTER_COMMIT, EventKind.AFTER_ABORT):
            self._deferred.clear()
            for rule in self._rules.values():
                rule.event.reset()
            return
        if self._depth >= _CASCADE_LIMIT:
            raise RuleCascadeError(
                f"rule cascade exceeded {_CASCADE_LIMIT} levels"
            )
        self._depth += 1
        try:
            for rule in self.rules():
                if not rule.enabled:
                    continue
                matched = self._matches(rule, event)
                if not matched:
                    continue
                ctx = RuleContext(schema=self.schema, event=event, rule=rule)
                if not rule.applies(ctx):
                    continue
                if rule.mode is Mode.DEFERRED:
                    self._enqueue_deferred(rule, ctx)
                else:
                    self._evaluate(rule, ctx)
        finally:
            self._depth -= 1

    def _enqueue_deferred(self, rule: Rule, ctx: RuleContext) -> None:
        """Queue a deferred check, one per (rule, target) per transaction.

        Deferred rules assert the *final* state at commit (§5.2.2.1), so
        repeated triggering events on the same object collapse to the
        latest context.
        """
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_rules_deferred_enqueued_total",
                help="Deferred rule checks enqueued",
            ).inc()
            tel.registry.gauge(
                "repro_rules_deferred_depth",
                help="Current deferred-rule queue depth",
            ).set(len(self._deferred) + 1)
        target = ctx.target
        for index, entry in enumerate(self._deferred):
            if entry.rule is rule and (
                entry.context.target is target
                or (
                    target is not None
                    and entry.context.target is not None
                    and entry.context.target.oid == target.oid
                )
            ):
                self._deferred[index] = _DeferredEntry(rule=rule, context=ctx)
                return
        self._deferred.append(_DeferredEntry(rule=rule, context=ctx))

    def _matches(self, rule: Rule, event: Event) -> bool:
        """Event-spec match with schema-aware class narrowing.

        A spec narrowed to a class also matches events whose class is a
        *subclass* of it, so rules on abstract classes cover their whole
        hierarchy — including inside composite specs.
        """
        return rule.event.feed(event, self._class_covers)

    def _class_covers(self, event_class: str, spec_class: str) -> bool:
        if not (
            event_class
            and self.schema.has_class(event_class)
            and self.schema.has_class(spec_class)
        ):
            return False
        return self.schema.get_class(event_class).is_subclass_of(
            self.schema.get_class(spec_class)
        )

    # -- evaluation -----------------------------------------------------------------

    def _evaluate(self, rule: Rule, ctx: RuleContext) -> None:
        rule.fired += 1
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_rules_fired_total", help="Rule evaluations"
            ).inc()
            tel.registry.counter(
                "repro_rules_fired_by_rule_total", {"rule": rule.name}
            ).inc()
        if rule.kind is RuleKind.ACTION:
            rule.run_action(ctx)
            return
        if rule.check(ctx):
            return
        rule.violations += 1
        if tel.enabled:
            tel.registry.counter(
                "repro_rules_violations_total", help="Rule violations"
            ).inc()
            tel.registry.counter(
                "repro_rules_violations_by_rule_total", {"rule": rule.name}
            ).inc()
        self._handle_violation(rule, ctx)

    def _handle_violation(self, rule: Rule, ctx: RuleContext) -> None:
        message = rule.message or rule.describe()
        if rule.on_violation is OnViolation.WARN:
            self._warnings.append(
                Violation(
                    rule_name=rule.name,
                    message=message,
                    event_kind=ctx.event.kind.value,
                    target_oid=ctx.target.oid if ctx.target is not None else None,
                )
            )
            return
        if rule.on_violation is OnViolation.REPAIR:
            rule.run_action(ctx)
            if rule.check(ctx):
                return
            raise ConstraintViolation(rule.name, message + " (repair failed)")
        if rule.on_violation is OnViolation.INTERACTIVE:
            handler = self._interactive_handler
            if handler is not None and handler(rule, ctx):
                return
            raise ConstraintViolation(rule.name, message + " (rejected)")
        raise ConstraintViolation(rule.name, message)

    def _run_deferred(self) -> None:
        """Evaluate the deferred queue at commit (§5.2.2.1).

        On an ABORT-class violation the transaction is rolled back
        automatically before the error propagates — the thesis's
        automatic transaction abortion.
        """
        if self._running_deferred:
            return
        self._running_deferred = True
        try:
            entries, self._deferred = self._deferred, []
            tel = self.telemetry
            if tel.enabled:
                tel.registry.gauge("repro_rules_deferred_depth").set(0)
            for entry in entries:
                target = entry.context.target
                if target is not None and target.deleted:
                    continue  # the object died later in the transaction
                try:
                    self._evaluate(entry.rule, entry.context)
                except ConstraintViolation:
                    self.schema.abort()
                    raise
        finally:
            self._running_deferred = False

    # -- whole-database validation -----------------------------------------------------

    def check_all_invariants(self) -> list[Violation]:
        """Run every invariant over the extents it targets, reporting all
        violations instead of raising (what-if / audit mode, §7.1.4)."""
        found: list[Violation] = []
        for rule in self.rules():
            if rule.kind is not RuleKind.INVARIANT or not rule.enabled:
                continue
            if not rule.target_class or not self.schema.has_class(
                rule.target_class
            ):
                continue
            for obj in self.schema.extent(rule.target_class):
                event = Event(
                    kind=EventKind.AFTER_UPDATE,
                    target=obj,
                    class_name=obj.pclass.name,
                )
                ctx = RuleContext(schema=self.schema, event=event, rule=rule)
                if not rule.applies(ctx):
                    continue
                if not rule.check(ctx):
                    found.append(
                        Violation(
                            rule_name=rule.name,
                            message=rule.message or rule.describe(),
                            event_kind="audit",
                            target_oid=obj.oid,
                        )
                    )
        return found

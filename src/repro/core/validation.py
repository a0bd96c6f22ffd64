"""Log validation and quarantine — the guard at the data boundary.

The paper's methodology is only sound when the harvested tuples
``⟨x, a, r, p⟩`` satisfy its assumptions; real production logs violate
them constantly (§5), and mundanely: truncated lines, missing fields,
zero or out-of-range propensities, actions outside the eligible set.
SAYER and the contextual-bandit productization literature both report
that guarding this boundary is the hard part of shipping these
systems.  This module is that guard:

- :class:`RecordValidator` — composable per-record rules (parseable,
  schema-complete, propensity in (0, 1], action in the eligible set,
  reward finite/in range, monotone timestamps) that classify each raw
  record as clean, repairable, or rejected.
- :class:`Quarantine` — collects rejected records *with reasons*
  instead of crashing mid-file, and renders a per-reason report.
- Three processing modes, wired through
  :meth:`repro.core.types.Dataset.load_jsonl`,
  :meth:`repro.core.harvest.HarvestPipeline.build_dataset`,
  :class:`repro.core.streaming.ValidatedInteractionStream`, and the
  ``python -m repro evaluate`` CLI:

  - ``"strict"`` — first bad record raises a :class:`ValueError`
    naming the source and 1-based line number;
  - ``"quarantine"`` — bad records are set aside with a reason and
    processing continues;
  - ``"repair"`` — fixable defects (clampable propensities, clippable
    rewards, non-monotone timestamps) are repaired and counted; the
    rest are quarantined.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.types import (
    ActionSpace,
    Context,
    Interaction,
    RewardRange,
)
from repro.obs.metrics import get_metrics
from repro.obs.monitors import NULL_MONITORS, get_monitors

#: Rejection reason codes, used as quarantine bucket keys.
UNPARSEABLE = "unparseable"
SCHEMA = "schema"
PROPENSITY = "propensity"
ACTION = "action"
REWARD = "reward"
TIMESTAMP = "timestamp"
#: Ledger-chain rejections (hash binding broken, tampered content);
#: same code as :data:`repro.audit.ledger.LEDGER`.
LEDGER = "ledger"

REASONS = (UNPARSEABLE, SCHEMA, PROPENSITY, ACTION, REWARD, TIMESTAMP, LEDGER)

#: The recognized processing modes.
MODES = ("strict", "quarantine", "repair")


def check_mode(mode: str) -> str:
    """Validate a processing-mode name."""
    if mode not in MODES:
        raise ValueError(f"unknown validation mode {mode!r}; expected one of {MODES}")
    return mode


@dataclass(frozen=True)
class RejectedRecord:
    """One record the validator refused, with provenance.

    ``line_number`` is 1-based; 0 means the source had no line numbers
    (e.g. an in-memory record stream, where it is the record index + 1).
    """

    line_number: int
    reason: str
    detail: str
    raw: str

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.reason}: {self.detail}"


class Quarantine:
    """Rejected records, collected instead of crashing the pipeline.

    Keeps per-reason counts for every rejection and retains up to
    ``max_kept`` full :class:`RejectedRecord` examples (counting always
    continues past the cap — a 10%-corrupt billion-line log must not
    hold a billion lines of garbage in memory).

    Every rejection and repair is also mirrored to the active metrics
    registry (:mod:`repro.obs.metrics`) as ``validation.rejected`` /
    ``validation.repaired`` counters labeled by reason, and every
    rejection to the active monitor suite
    (:mod:`repro.obs.monitors` — the quarantine-rate and
    ledger-break-rate monitors) — both no-ops until a run installs
    them.  ``record_metrics=False`` opts a quarantine out of the
    mirrors; the chunked engine uses it for its discovery pass so a
    two-pass run does not double-count.
    """

    def __init__(self, max_kept: int = 1000, record_metrics: bool = True) -> None:
        if max_kept < 0:
            raise ValueError("max_kept must be non-negative")
        self.max_kept = max_kept
        self.record_metrics = record_metrics
        self.rejected: list[RejectedRecord] = []
        self.counts: Counter = Counter()
        self.repairs: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def add(self, line_number: int, reason: str, detail: str, raw: str = "") -> None:
        """Record one rejection."""
        self.counts[reason] += 1
        if self.record_metrics:
            get_metrics().counter("validation.rejected", reason=reason).inc()
            get_monitors().observe_rejected(reason)
        if len(self.rejected) < self.max_kept:
            self.rejected.append(
                RejectedRecord(line_number, reason, detail, raw[:200])
            )

    def note_repair(self, reason: str) -> None:
        """Record one successful in-place repair (repair mode)."""
        self.repairs[reason] += 1
        if self.record_metrics:
            get_metrics().counter("validation.repaired", reason=reason).inc()

    # -- inspection ----------------------------------------------------------

    @property
    def n_rejected(self) -> int:
        """Total records rejected (including those past ``max_kept``)."""
        return sum(self.counts.values())

    @property
    def n_repaired(self) -> int:
        """Total repairs applied (repair mode only)."""
        return sum(self.repairs.values())

    def __len__(self) -> int:
        return self.n_rejected

    def __bool__(self) -> bool:
        # A quarantine is "truthy" when anything landed in it; an empty
        # quarantine is falsy so `if dataset.quarantine:` reads naturally.
        return self.n_rejected > 0 or self.n_repaired > 0

    def counts_by_reason(self) -> dict[str, int]:
        """Rejection counts keyed by reason code."""
        return dict(self.counts)

    def report(self) -> dict:
        """JSON-serializable summary of everything quarantined."""
        return {
            "n_rejected": self.n_rejected,
            "n_repaired": self.n_repaired,
            "by_reason": dict(self.counts),
            "repairs_by_reason": dict(self.repairs),
            "examples": [
                {
                    "line": r.line_number,
                    "reason": r.reason,
                    "detail": r.detail,
                    "raw": r.raw,
                }
                for r in self.rejected[:10]
            ],
        }

    def summary_text(self) -> str:
        """Human-readable per-reason report for terminals."""
        lines = [
            f"quarantine: {self.n_rejected} record(s) rejected, "
            f"{self.n_repaired} repaired"
        ]
        for reason in sorted(self.counts):
            lines.append(f"  {reason:<12s} {self.counts[reason]}")
        for reason in sorted(self.repairs):
            lines.append(f"  repaired/{reason:<12s} {self.repairs[reason]}")
        for example in self.rejected[:3]:
            lines.append(f"  e.g. {example}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Quarantine(rejected={self.n_rejected}, "
            f"repaired={self.n_repaired})"
        )


def check_values(
    context: Optional[Context],
    action: object,
    reward: object,
    propensity: object,
    eligible: Optional[Sequence[int]] = None,
    reward_range: Optional[RewardRange] = None,
) -> list[tuple[str, str]]:
    """Value-level rules shared by every validation entry point.

    Returns ``(reason, detail)`` issues; empty means the tuple is a
    legal exploration datapoint.  Used both on parsed JSONL records and
    on the harvest pipeline's scavenged-record → propensity-model path.
    """
    issues: list[tuple[str, str]] = []
    # Action: an integer, non-negative, inside the eligible set.
    try:
        action_id = int(action)  # type: ignore[arg-type]
        if isinstance(action, float) and not float(action).is_integer():
            raise ValueError(action)
    except (TypeError, ValueError):
        issues.append((ACTION, f"action {action!r} is not an integer"))
    else:
        if action_id < 0:
            issues.append((ACTION, f"action {action_id} is negative"))
        elif eligible is not None and action_id not in eligible:
            issues.append(
                (ACTION, f"action {action_id} not in eligible set {list(eligible)}")
            )
    # Reward: finite float, inside the declared range when one is known.
    try:
        reward_value = float(reward)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        issues.append((REWARD, f"reward {reward!r} is not a number"))
    else:
        if not math.isfinite(reward_value):
            issues.append((REWARD, f"reward {reward_value} is not finite"))
        elif reward_range is not None and not (
            reward_range.low <= reward_value <= reward_range.high
        ):
            issues.append(
                (
                    REWARD,
                    f"reward {reward_value:g} outside declared range "
                    f"[{reward_range.low:g}, {reward_range.high:g}]",
                )
            )
    # Propensity: a probability, strictly positive (p = 0 breaks IPS).
    try:
        p = float(propensity)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        issues.append((PROPENSITY, f"propensity {propensity!r} is not a number"))
    else:
        if not math.isfinite(p):
            issues.append((PROPENSITY, f"propensity {p} is not finite"))
        elif not 0.0 < p <= 1.0:
            issues.append((PROPENSITY, f"propensity {p:g} outside (0, 1]"))
    return issues


class RecordValidator:
    """Composable per-record rules over raw (parsed-JSON) log records.

    The built-in rules mirror the exploration-tuple contract: schema
    completeness, a well-formed context, ``propensity ∈ (0, 1]``,
    ``action`` in the eligible set, ``reward`` finite and in range, and
    (optionally) monotone timestamps.  ``extra_rules`` appends custom
    callables ``record -> Optional[(reason, detail)]``.

    The monotone-timestamp rule is stateful: call :meth:`reset` before
    reusing a validator on a new log.
    """

    REQUIRED_FIELDS = ("context", "action", "reward", "propensity")

    def __init__(
        self,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        monotone_timestamps: bool = False,
        repair_propensity_floor: float = 1e-3,
        extra_rules: Sequence = (),
    ) -> None:
        if not 0.0 < repair_propensity_floor <= 1.0:
            raise ValueError("repair_propensity_floor must be in (0, 1]")
        self.action_space = action_space
        self.reward_range = reward_range
        self.monotone_timestamps = monotone_timestamps
        self.repair_propensity_floor = repair_propensity_floor
        self.extra_rules = list(extra_rules)
        self._last_timestamp: Optional[float] = None

    def reset(self) -> None:
        """Forget cross-record state (the last accepted timestamp)."""
        self._last_timestamp = None

    # -- rule evaluation -----------------------------------------------------

    def check(self, record: object) -> list[tuple[str, str]]:
        """All rule violations for one parsed record (empty = clean).

        Pure with respect to validator state: the monotone-timestamp
        watermark only advances via :meth:`observe`, which the drivers
        call after a record is *accepted*.
        """
        if not isinstance(record, Mapping):
            return [(SCHEMA, f"record is {type(record).__name__}, not an object")]
        missing = [f for f in self.REQUIRED_FIELDS if f not in record]
        if missing:
            return [(SCHEMA, f"missing field(s) {missing}")]
        issues: list[tuple[str, str]] = []
        context = record["context"]
        eligible: Optional[Sequence[int]] = None
        if not isinstance(context, Mapping):
            issues.append(
                (SCHEMA, f"context is {type(context).__name__}, not a mapping")
            )
            context = None
        else:
            try:
                context = {str(k): float(v) for k, v in context.items()}
            except (TypeError, ValueError):
                issues.append((SCHEMA, "context has non-numeric feature values"))
                context = None
        if context is not None and self.action_space is not None:
            try:
                eligible = self.action_space.actions(context)
            except (KeyError, ValueError, TypeError):
                eligible = list(range(self.action_space.n_actions))
        issues.extend(
            check_values(
                context,
                record["action"],
                record["reward"],
                record["propensity"],
                eligible=eligible,
                reward_range=self.reward_range,
            )
        )
        full_rewards = record.get("full_rewards")
        if full_rewards is not None:
            try:
                if not all(math.isfinite(float(r)) for r in full_rewards):
                    issues.append((REWARD, "full_rewards contains non-finite values"))
            except (TypeError, ValueError):
                issues.append((REWARD, "full_rewards is not a numeric sequence"))
        if self.monotone_timestamps and self._last_timestamp is not None:
            try:
                timestamp = float(record.get("timestamp", 0.0))
            except (TypeError, ValueError):
                timestamp = None
                issues.append((TIMESTAMP, "timestamp is not a number"))
            if timestamp is not None and timestamp < self._last_timestamp:
                issues.append(
                    (
                        TIMESTAMP,
                        f"timestamp {timestamp:g} precedes previous "
                        f"{self._last_timestamp:g}",
                    )
                )
        for rule in self.extra_rules:
            issue = rule(record)
            if issue is not None:
                issues.append(tuple(issue))  # type: ignore[arg-type]
        return issues

    def observe(self, record: Mapping) -> None:
        """Advance cross-record state after a record is accepted."""
        if self.monotone_timestamps:
            try:
                self._last_timestamp = float(record.get("timestamp", 0.0))
            except (TypeError, ValueError):  # pragma: no cover - checked earlier
                pass

    # -- repair --------------------------------------------------------------

    def repair(
        self, record: Mapping, issues: Sequence[tuple[str, str]]
    ) -> tuple[dict, list[tuple[str, str]], list[str]]:
        """Fix what is fixable; return (record, remaining issues, repairs).

        Repairable defects:

        - propensity > 1 → clamped to 1; propensity ≤ 0 (but numeric and
          finite) → raised to ``repair_propensity_floor`` — a recorded
          guess that keeps the record usable at bounded weight;
        - reward outside the declared range → clipped into it;
        - non-monotone timestamp → raised to the previous timestamp.

        Schema and action defects are structural and never repaired.
        """
        repaired = dict(record)
        remaining: list[tuple[str, str]] = []
        applied: list[str] = []
        for reason, detail in issues:
            if reason == PROPENSITY:
                try:
                    p = float(repaired["propensity"])
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                if not math.isfinite(p):
                    remaining.append((reason, detail))
                elif p > 1.0:
                    repaired["propensity"] = 1.0
                    applied.append(PROPENSITY)
                else:  # p <= 0: floor it
                    repaired["propensity"] = self.repair_propensity_floor
                    applied.append(PROPENSITY)
            elif reason == REWARD and self.reward_range is not None:
                try:
                    r = float(repaired["reward"])
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                if math.isfinite(r):
                    repaired["reward"] = self.reward_range.clip(r)
                    applied.append(REWARD)
                else:
                    remaining.append((reason, detail))
            elif reason == TIMESTAMP and self._last_timestamp is not None:
                try:
                    float(repaired.get("timestamp", 0.0))
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                repaired["timestamp"] = self._last_timestamp
                applied.append(TIMESTAMP)
            else:
                remaining.append((reason, detail))
        return repaired, remaining, applied


def admit_record(
    record: object,
    raw: str,
    line_number: int,
    mode: str,
    validator: RecordValidator,
    quarantine: Quarantine,
    source_name: str,
    chain=None,
) -> Optional[Interaction]:
    """Admit one parsed record: the per-record path of every validated read.

    Checks the ledger binding (when ``chain`` is given), the value rules,
    and repair, then builds the :class:`Interaction`.  Returns it, or
    ``None`` once the record is quarantined; in strict mode the first
    defect raises a :class:`ValueError` naming ``source_name`` and the
    1-based ``line_number`` instead.  :func:`validated_interactions`
    runs every record through here, and the columnar reader of
    :mod:`repro.core.codec` every line its template path does not
    admit, so both report identical reasons, details and examples.
    """
    chain_issues: list[tuple[str, str]] = []
    if chain is not None and isinstance(record, Mapping):
        # Check the binding on the ORIGINAL record (repair must not
        # resurrect a tampered one), then advance the head over the
        # log as written, accepted or not.
        chain_issues = list(chain.check(record))
        chain.observe(record)
    if chain_issues:
        reason, detail = chain_issues[0]
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {reason}: {detail}"
            )
        quarantine.add(
            line_number, reason,
            "; ".join(d for _, d in chain_issues), raw,
        )
        return None
    issues = validator.check(record)
    if issues and mode == "repair" and isinstance(record, Mapping):
        record, issues, applied = validator.repair(record, issues)
        for reason in applied:
            quarantine.note_repair(reason)
    if issues:
        reason, detail = issues[0]
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {reason}: {detail}"
            )
        quarantine.add(
            line_number, reason, "; ".join(d for _, d in issues), raw
        )
        return None
    try:
        interaction = Interaction.from_dict(record)  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as error:
        # Belt and braces: whatever the rules missed, the Interaction
        # constructor's own invariants still hold the line.
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {error}"
            ) from error
        quarantine.add(line_number, SCHEMA, str(error), raw)
        return None
    validator.observe(record)  # type: ignore[arg-type]
    return interaction


def validated_interactions(
    source: Iterable[Union[str, Mapping]],
    mode: str = "strict",
    validator: Optional[RecordValidator] = None,
    quarantine: Optional[Quarantine] = None,
    source_name: str = "<stream>",
    chain=None,
) -> Iterator[Interaction]:
    """Validate a stream of JSONL lines (or parsed dicts) into Interactions.

    The per-record driver behind :class:`~repro.core.streaming.
    ValidatedInteractionStream` and the reference the columnar reader
    (:mod:`repro.core.codec`) is held to.  ``source``
    may mix raw JSONL strings and already-parsed mappings.  In strict
    mode the first defect raises a :class:`ValueError` naming
    ``source_name`` and the 1-based line number; otherwise defects land
    in ``quarantine`` (pass one in to read the report afterwards).
    Blank lines are skipped without counting as rejections.

    ``chain`` (a :class:`repro.audit.ledger.ChainFollower`) adds
    tamper-evidence on top of the value rules: each record's ledger
    hash binding is checked *before* any repair mutates it, broken
    bindings are rejected under the :data:`LEDGER` reason (never
    repaired — a record that fails its own hash has no trustworthy
    content to fix), and the chain head advances over the log as
    written so a single bad record localizes instead of poisoning its
    suffix.
    """
    check_mode(mode)
    validator = validator or RecordValidator()
    validator.reset()
    quarantine = quarantine if quarantine is not None else Quarantine()
    monitors = get_monitors() if quarantine.record_metrics else NULL_MONITORS
    accepted = 0
    for line_number, item in enumerate(source, start=1):
        raw = ""
        if isinstance(item, str):
            raw = item.strip()
            if not raw:
                continue
            try:
                record: object = json.loads(raw)
            except json.JSONDecodeError as error:
                if mode == "strict":
                    raise ValueError(
                        f"{source_name}: invalid JSON at line {line_number}: "
                        f"{error.msg}"
                    ) from error
                quarantine.add(line_number, UNPARSEABLE, error.msg, raw)
                continue
        else:
            record = item
        interaction = admit_record(
            record, raw, line_number, mode, validator, quarantine,
            source_name, chain,
        )
        if interaction is None:
            continue
        if monitors.enabled:
            # Batched so quarantine-rate denominators cost one fold per
            # 1024 accepted rows, not one per row.
            accepted += 1
            if accepted >= 1024:
                monitors.observe_rows(accepted)
                accepted = 0
        yield interaction
    if accepted:
        monitors.observe_rows(accepted)

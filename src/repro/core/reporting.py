"""Report formatting for harvesting runs.

Harvesting ends in a decision meeting: someone reads a table of
offline estimates (and, for candidates that did get deployed, online
numbers) and picks what ships.  This module renders those tables —
plain text for terminals, Markdown for docs/PRs — plus a one-stop
summary of an exploration dataset's vital signs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.estimators.base import EstimatorResult
    from repro.core.types import Dataset


def text_table(headers: Sequence, rows: Sequence[Sequence]) -> str:
    """Fixed-width aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def markdown_table(headers: Sequence, rows: Sequence[Sequence]) -> str:
    """GitHub-flavored Markdown table."""
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    rule = "|" + "|".join("---" for _ in headers) + "|"
    body = [
        "| " + " | ".join(str(c) for c in row) + " |" for row in rows
    ]
    return "\n".join([head, rule] + body)


def dataset_summary(dataset: Dataset) -> dict:
    """Vital signs of an exploration dataset.

    Everything a reviewer asks before trusting estimates from it:
    volume, action coverage, the propensity floor (ε of Eq. 1), and
    the reward distribution.
    """
    # Imported here: ``repro report`` renders with :func:`text_table`,
    # and this module loads no numpy until a dataset needs it.
    import numpy as np

    if len(dataset) == 0:
        raise ValueError("empty dataset has no summary")
    actions = dataset.actions()
    rewards = dataset.rewards()
    counts = np.bincount(actions)
    observed_actions = int(np.count_nonzero(counts))
    declared_actions = (
        dataset.action_space.n_actions
        if dataset.action_space is not None
        else observed_actions
    )
    return {
        "n": len(dataset),
        "actions_declared": declared_actions,
        "actions_observed": observed_actions,
        "min_propensity": dataset.min_propensity(),
        "least_seen_action_share": float(counts[counts > 0].min()) / len(dataset),
        "reward_mean": float(rewards.mean()),
        "reward_min": float(rewards.min()),
        "reward_max": float(rewards.max()),
        "timespan": (
            float(dataset[-1].timestamp - dataset[0].timestamp)
            if len(dataset) > 1
            else 0.0
        ),
    }


def dataset_summary_text(dataset: Dataset) -> str:
    """The summary rendered as a small text table."""
    summary = dataset_summary(dataset)
    rows = [[key, f"{value:g}" if isinstance(value, float) else value]
            for key, value in summary.items()]
    return text_table(["quantity", "value"], rows)


def estimator_table(
    results: Mapping[str, EstimatorResult],
    markdown: bool = False,
) -> str:
    """Render policy → EstimatorResult rows with CIs and match rates.

    When any result carries reliability diagnostics (see
    :mod:`repro.core.diagnostics`), a ``reliability`` column is added
    with the per-estimate verdict — an ``UNRELIABLE`` row should never
    reach a decision meeting unflagged.
    """
    with_verdicts = any(
        result.diagnostics is not None for result in results.values()
    )
    headers = ["policy", "estimate", "95% CI", "n", "match rate"]
    if with_verdicts:
        headers.append("reliability")
    rows = []
    for name, result in results.items():
        lo, hi = result.confidence_interval()
        match = result.details.get("match_rate")
        row = [
            name,
            f"{result.value:.4f}",
            f"[{lo:.4f}, {hi:.4f}]",
            result.n,
            f"{match:.1%}" if match is not None else "-",
        ]
        if with_verdicts:
            row.append(
                result.diagnostics.verdict
                if result.diagnostics is not None
                else "-"
            )
        rows.append(row)
    renderer = markdown_table if markdown else text_table
    return renderer(headers, rows)


def diagnostics_table(
    results: Mapping[str, EstimatorResult],
    markdown: bool = False,
) -> str:
    """Per-policy reliability detail: ESS, weight tail, coverage, verdict.

    The companion drill-down to :func:`estimator_table`'s verdict
    column; rows without diagnostics render as dashes.
    """
    headers = [
        "policy", "verdict", "ESS", "max w", "coverage", "reasons",
    ]
    rows = []
    for name, result in results.items():
        d = result.diagnostics
        if d is None:
            rows.append([name, "-", "-", "-", "-", "-"])
            continue
        rows.append(
            [
                name,
                d.verdict,
                f"{d.effective_sample_size:.1f}"
                if d.effective_sample_size is not None
                else "-",
                f"{d.max_weight:.1f}" if d.max_weight is not None else "-",
                f"{d.support_coverage:.0%}",
                "; ".join(d.reasons) if d.reasons else "-",
            ]
        )
    renderer = markdown_table if markdown else text_table
    return renderer(headers, rows)


def quarantine_table(quarantine, markdown: bool = False) -> str:
    """Per-reason rejection/repair counts for a validation quarantine."""
    headers = ["reason", "rejected", "repaired"]
    reasons = sorted(set(quarantine.counts) | set(quarantine.repairs))
    rows = [
        [
            reason,
            quarantine.counts.get(reason, 0),
            quarantine.repairs.get(reason, 0),
        ]
        for reason in reasons
    ]
    rows.append(["total", quarantine.n_rejected, quarantine.n_repaired])
    renderer = markdown_table if markdown else text_table
    return renderer(headers, rows)


def offline_online_table(
    entries: Mapping[str, tuple],
    unit: str = "",
    markdown: bool = False,
) -> str:
    """The Table 2 layout: policy | off-policy eval | online eval.

    ``entries`` maps policy name → ``(offline, online)``; either value
    may be None (e.g. candidates never deployed).
    """
    headers = ["policy", "off-policy eval", "online eval"]

    def fmt(value: Optional[float]) -> str:
        return f"{value:.3f}{unit}" if value is not None else "-"

    rows = [
        [name, fmt(offline), fmt(online)]
        for name, (offline, online) in entries.items()
    ]
    renderer = markdown_table if markdown else text_table
    return renderer(headers, rows)

"""The OPE promotion gate: no candidate serves without passing it.

Promotion safety is the whole point of the serving loop (paper §5;
the rollout-safety concerns come from *Productization Challenges of
Contextual Multi-Armed Bandits*, PAPERS.md): a candidate policy is
promoted only when an **offline** evaluation over the service's own
decision log says it is better, and says so *reliably*:

1. both the candidate and the incumbent are estimated with the
   doubly-robust estimator through the chunked engine
   (:func:`repro.core.engine.evaluate_jsonl_chunked` — O(chunk)
   memory, so gating never competes with serving for RAM);
2. the candidate's reliability diagnostics
   (:mod:`repro.core.diagnostics`) must not be UNRELIABLE (WARN is
   accepted: WARN means "look", UNRELIABLE means "do not act");
3. the candidate's DR estimate must beat the incumbent's by at least
   ``margin``.

:func:`evaluate_candidate` is the pure decision function.
:class:`GateRunner` executes it in a **separate process** so a gate
evaluation can never block, crash, or slow the serving loop — a
SIGKILLed evaluation subprocess simply yields a ``promote=False``
decision with the exit code in its reasons (pinned by the chaos
suite).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Optional

from repro.core.diagnostics import VERDICT_UNRELIABLE
from repro.core.engine import STREAM_CHUNK_SIZE, evaluate_jsonl_chunked
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.policies import Policy

# The folds import their reductions on first use.  Importing them here,
# at server boot, leaves a forked gate child nothing to import, so its
# time is all evaluation.
import repro.core.estimators.reductions  # noqa: F401

__all__ = ["GateConfig", "GateDecision", "GateRunner", "evaluate_candidate"]


@dataclass(frozen=True)
class GateConfig:
    """Knobs of the promotion gate.

    ``min_rows`` guards against promoting off a sliver of log;
    ``margin`` is the minimum DR improvement over the incumbent.
    """

    min_rows: int = 256
    margin: float = 0.0


@dataclass(frozen=True)
class GateDecision:
    """The gate's verdict on one candidate.

    ``promote`` is the only field the swap controller acts on; the
    rest (estimates, diagnostics verdict, reasons) land in the
    manifest's ``serving.gates`` record so every promotion — and every
    refusal — is auditable after the fact.
    """

    candidate: str
    promote: bool
    reasons: tuple = ()
    candidate_value: Optional[float] = None
    incumbent_value: Optional[float] = None
    verdict: Optional[str] = None
    n: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-able form (manifest ``serving.gates`` entries)."""
        return {
            "candidate": self.candidate,
            "promote": self.promote,
            "reasons": list(self.reasons),
            "candidate_value": self.candidate_value,
            "incumbent_value": self.incumbent_value,
            "verdict": self.verdict,
            "n": self.n,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GateDecision":
        """Inverse of :meth:`to_dict` (pipe transport)."""
        return cls(
            candidate=data["candidate"],
            promote=bool(data["promote"]),
            reasons=tuple(data.get("reasons", ())),
            candidate_value=data.get("candidate_value"),
            incumbent_value=data.get("incumbent_value"),
            verdict=data.get("verdict"),
            n=int(data.get("n", 0)),
            details=dict(data.get("details", {})),
        )


def evaluate_candidate(
    log_path: str,
    candidate_name: str,
    candidate: Policy,
    incumbent: Policy,
    config: GateConfig = GateConfig(),
    prefix_bytes: Optional[int] = None,
) -> GateDecision:
    """Run the offline OPE gate over a flushed decision log.

    Pure and synchronous — callable inline (tests, examples) or inside
    the :class:`GateRunner` subprocess (the server).  Estimation errors
    (empty log, unreadable file, degenerate weights) become a
    ``promote=False`` decision rather than an exception: the serving
    loop must never die because an evaluation did.  ``prefix_bytes``
    bounds both evaluation passes to the log's first ``prefix_bytes``
    bytes (the prefix the gate's flush made durable); by default the
    whole file is read.
    """
    try:
        evaluation = evaluate_jsonl_chunked(
            log_path,
            [candidate, incumbent],
            [DoublyRobustEstimator()],
            chunk_size=STREAM_CHUNK_SIZE,
            mode="strict",
            prefix_bytes=prefix_bytes,
        )
    except (OSError, ValueError) as error:
        return GateDecision(
            candidate=candidate_name,
            promote=False,
            reasons=(f"evaluation failed: {error}",),
        )
    cand_result = evaluation.results[0][0]
    inc_result = evaluation.results[1][0]
    verdict = (
        cand_result.diagnostics.verdict
        if cand_result.diagnostics is not None
        else None
    )
    reasons = []
    if evaluation.n < config.min_rows:
        reasons.append(
            f"only {evaluation.n} rows logged (gate needs "
            f">= {config.min_rows})"
        )
    if verdict == VERDICT_UNRELIABLE:
        diag_reasons = "; ".join(cand_result.diagnostics.reasons)
        reasons.append(f"diagnostics UNRELIABLE: {diag_reasons}")
    if cand_result.value < inc_result.value + config.margin:
        reasons.append(
            f"candidate DR {cand_result.value:.4f} does not beat "
            f"incumbent {inc_result.value:.4f} by margin "
            f"{config.margin:g}"
        )
    return GateDecision(
        candidate=candidate_name,
        promote=not reasons,
        reasons=tuple(reasons),
        candidate_value=cand_result.value,
        incumbent_value=inc_result.value,
        verdict=verdict,
        n=evaluation.n,
        details={
            "candidate_std_error": cand_result.std_error,
            "incumbent_std_error": inc_result.std_error,
            "estimator": cand_result.estimator,
        },
    )


def _gate_worker(conn, log_path, candidate_name, candidate, incumbent,
                 config, prefix_bytes) -> None:
    """Subprocess entry: evaluate, ship the decision dict, exit."""
    try:
        decision = evaluate_candidate(
            log_path, candidate_name, candidate, incumbent, config,
            prefix_bytes,
        )
        conn.send(decision.to_dict())
    except BaseException as error:  # noqa: BLE001 - report, never hang
        conn.send(
            {
                "candidate": candidate_name,
                "promote": False,
                "reasons": [f"evaluation crashed: {error!r}"],
            }
        )
    finally:
        conn.close()


class GateRunner:
    """One gate evaluation in a child process, pollable from the loop.

    The serving loop calls :meth:`poll` between request batches (or an
    asyncio task awaits :meth:`wait`); the child evaluates the flushed
    log independently, up to ``prefix_bytes`` when given (see
    :func:`evaluate_candidate`).  If the child is SIGKILLed,
    OOM-killed, or crashes before reporting, :meth:`poll` returns a
    ``promote=False`` decision naming the exit code — serving itself
    never notices.
    """

    def __init__(
        self,
        log_path: str,
        candidate_name: str,
        candidate: Policy,
        incumbent: Policy,
        config: GateConfig = GateConfig(),
        prefix_bytes: Optional[int] = None,
    ) -> None:
        ctx = multiprocessing.get_context()
        self._recv, child_conn = ctx.Pipe(duplex=False)
        self.candidate_name = candidate_name
        self.process = ctx.Process(
            target=_gate_worker,
            args=(
                child_conn, log_path, candidate_name, candidate,
                incumbent, config, prefix_bytes,
            ),
            daemon=True,
        )
        self.process.start()
        # The parent's copy of the child end must close so EOF (child
        # death) is observable on the read end.
        child_conn.close()
        self._decision: Optional[GateDecision] = None

    @property
    def pid(self) -> Optional[int]:
        """The evaluation subprocess PID (for the chaos suite)."""
        return self.process.pid

    def _finish(self, decision: GateDecision) -> GateDecision:
        self._decision = decision
        self._recv.close()
        self.process.join(timeout=5)
        return decision

    def poll(self) -> Optional[GateDecision]:
        """Non-blocking check; a decision once the child reported/died."""
        if self._decision is not None:
            return self._decision
        try:
            if self._recv.poll(0):
                payload = self._recv.recv()
                return self._finish(GateDecision.from_dict(payload))
        except (EOFError, OSError):
            pass  # child died with the pipe open: fall through
        if not self.process.is_alive():
            return self._finish(
                GateDecision(
                    candidate=self.candidate_name,
                    promote=False,
                    reasons=(
                        "evaluation subprocess died without reporting "
                        f"(exitcode {self.process.exitcode})",
                    ),
                )
            )
        return None

    def wait(self, timeout: Optional[float] = None) -> Optional[GateDecision]:
        """Block up to ``timeout`` seconds for the decision."""
        if self._decision is not None:
            return self._decision
        self.process.join(timeout=timeout)
        return self.poll()

    def terminate(self) -> None:
        """Abandon the evaluation (service shutdown)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        self._recv.close()

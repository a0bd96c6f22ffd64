"""Machine-health scenario (Azure Compute), simulated.

The paper's flagship application: when a machine becomes unresponsive,
choose how long to wait (1–10 minutes) before rebooting it.  Azure's
logs were collected under the safe default of always waiting the
maximum, which reveals what *would* have happened at every shorter
wait — full feedback.  We reproduce that structure synthetically:

- :mod:`~repro.machinehealth.fleet` — machines with hardware/OS/
  failure-history features.
- :mod:`~repro.machinehealth.failures` — a recovery/downtime model in
  which the optimal wait time depends on the context, drawn as
  columns (:func:`failure_columns`).
- :mod:`~repro.machinehealth.dataset` — full-feedback datasets and the
  partial-feedback exploration simulation used in Figs. 3–4.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.machinehealth.fleet": ("FleetConfig", "Machine", "generate_fleet"),
    "repro.machinehealth.failures": (
        "DowntimeModel", "FailureColumns", "FailureEvent", "WAIT_TIMES",
        "failure_columns", "generate_failures",
    ),
    "repro.machinehealth.dataset": (
        "MachineHealthDataset", "build_full_feedback_dataset",
        "default_policy_reward", "ground_truth_value", "simulate_exploration",
    ),
    "repro.machinehealth.eventlog": (
        "IncidentRecord", "dataset_from_incident_log", "format_incident_line",
        "parse_incident_line", "read_incident_log", "write_incident_log",
    ),
})

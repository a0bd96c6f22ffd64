"""Load-balancing scenario (Nginx), simulated.

A discrete-event reverse proxy over backend servers whose latency is a
linear function of open connections — the Fig. 5 setup — with
Nginx-style access logging, log scavenging, and the full set of
balancing policies from Table 2 (random, least-loaded, send-to-one,
CB-learned) plus the usual production suspects (round-robin, weighted
random, hashing, power-of-two-choices).

This substrate exists to reproduce Table 2's cautionary tale: plain
IPS evaluation *breaks* here because routing decisions change the
context (load) distribution, violating CB assumption A1.
"""

from repro.loadbalance.server import BackendServer, ServerConfig
from repro.loadbalance.workload import (
    DiurnalWorkload,
    Request,
    RequestType,
    Workload,
)
from repro.loadbalance.policies import (
    cb_policy_name,
    least_loaded_policy,
    power_of_two_policy,
    round_robin_policy,
    send_to_policy,
    weighted_random_policy,
)
from repro.loadbalance.access_log import (
    AccessLogEntry,
    format_access_log_line,
    parse_access_log_line,
)
from repro.loadbalance.proxy import LoadBalancerSim, SimulationResult, fig5_servers
from repro.loadbalance.harvest import (
    DecisionSnapshots,
    batch_latency_law,
    build_lb_pipeline,
    dataset_from_access_log,
    exploration_dataset_from_entries,
    synthetic_decision_snapshots,
)
from repro.loadbalance.frontdoor import (
    Cluster,
    FrontDoorSim,
    HierarchicalResult,
)

__all__ = [
    "BackendServer",
    "ServerConfig",
    "Request",
    "RequestType",
    "Workload",
    "DiurnalWorkload",
    "least_loaded_policy",
    "round_robin_policy",
    "send_to_policy",
    "weighted_random_policy",
    "power_of_two_policy",
    "cb_policy_name",
    "AccessLogEntry",
    "format_access_log_line",
    "parse_access_log_line",
    "LoadBalancerSim",
    "SimulationResult",
    "fig5_servers",
    "DecisionSnapshots",
    "batch_latency_law",
    "build_lb_pipeline",
    "dataset_from_access_log",
    "exploration_dataset_from_entries",
    "synthetic_decision_snapshots",
    "Cluster",
    "FrontDoorSim",
    "HierarchicalResult",
]

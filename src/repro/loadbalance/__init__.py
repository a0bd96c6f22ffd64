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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.loadbalance.server": ("BackendServer", "ServerConfig"),
    "repro.loadbalance.workload": (
        "DiurnalWorkload", "Request", "RequestType", "Workload",
    ),
    "repro.loadbalance.policies": (
        "cb_policy_name", "least_loaded_policy", "power_of_two_policy",
        "round_robin_policy", "send_to_policy", "weighted_random_policy",
    ),
    "repro.loadbalance.access_log": (
        "AccessLogEntry", "format_access_log_line", "parse_access_log_line",
    ),
    "repro.loadbalance.proxy": (
        "LoadBalancerSim", "SimulationResult", "fig5_servers",
    ),
    "repro.loadbalance.harvest": (
        "DecisionSnapshots", "batch_latency_law", "build_lb_pipeline",
        "dataset_from_access_log", "exploration_dataset_from_entries",
        "synthetic_decision_snapshots",
    ),
    "repro.loadbalance.frontdoor": (
        "Cluster", "FrontDoorSim", "HierarchicalResult",
    ),
})

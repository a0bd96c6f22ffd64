"""Caching scenario (Redis), simulated.

A byte-budgeted key-value cache with Redis-style *sampled* eviction:
when memory runs out, a uniform random sample of resident keys is
drawn and the eviction policy picks the victim among them.  That
sampling is precisely the "existing randomness" the paper harvests —
the candidate set is random, so the victim choice has a well-defined
propensity.

The reward for an eviction (Table 1, CB row) is the *time to the next
access of the evicted item*: evicting something that won't be needed
for a long time is good.  Redis retains no state for evicted keys, so
the reward is reconstructed at harvest time by looking ahead in the
keyspace log (§3).

Table 3's punchline lives here: on a big/small workload, greedy CB
eviction ≈ LRU ≈ random, all beaten by ~10 points by a hand-built
frequency/size policy — long-term opportunity cost is invisible to the
greedy reward.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.cache.store": ("CacheItem", "KeyValueStore"),
    "repro.cache.eviction": (
        "EvictionEvent", "SampledEvictionEngine", "candidate_features",
        "cb_eviction_policy", "freq_size_policy", "lfu_policy", "lru_policy",
        "naive_freq_size_policy", "random_eviction_policy", "ttl_policy",
        "volatile_ttl_policy",
    ),
    "repro.cache.workload": (
        "BigSmallWorkload", "CacheRequest", "ZipfWorkload",
    ),
    "repro.cache.sim": ("CacheSim", "CacheSimResult"),
    "repro.cache.keyspace_log": (
        "KeyspaceEvent", "format_keyspace_line", "parse_keyspace_line",
    ),
    "repro.cache.harvest": (
        "candidate_reward_matrix", "eviction_dataset_from_log",
        "reconstruct_rewards", "train_cb_eviction",
    ),
    "repro.cache.replay": (
        "replay_evaluate", "replay_rank", "requests_from_log",
    ),
    "repro.cache.trace": (
        "TraceStats", "read_trace", "working_set_bytes", "write_trace",
    ),
})

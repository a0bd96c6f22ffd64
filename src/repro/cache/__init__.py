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

from repro.cache.store import CacheItem, KeyValueStore
from repro.cache.eviction import (
    EvictionEvent,
    SampledEvictionEngine,
    candidate_features,
    cb_eviction_policy,
    freq_size_policy,
    lfu_policy,
    lru_policy,
    naive_freq_size_policy,
    random_eviction_policy,
    ttl_policy,
    volatile_ttl_policy,
)
from repro.cache.workload import BigSmallWorkload, CacheRequest, ZipfWorkload
from repro.cache.sim import CacheSim, CacheSimResult
from repro.cache.keyspace_log import (
    KeyspaceEvent,
    format_keyspace_line,
    parse_keyspace_line,
)
from repro.cache.harvest import (
    candidate_reward_matrix,
    eviction_dataset_from_log,
    reconstruct_rewards,
    train_cb_eviction,
)
from repro.cache.replay import replay_evaluate, replay_rank, requests_from_log
from repro.cache.trace import (
    TraceStats,
    read_trace,
    working_set_bytes,
    write_trace,
)

__all__ = [
    "CacheItem",
    "KeyValueStore",
    "EvictionEvent",
    "SampledEvictionEngine",
    "candidate_features",
    "random_eviction_policy",
    "lru_policy",
    "lfu_policy",
    "ttl_policy",
    "volatile_ttl_policy",
    "freq_size_policy",
    "naive_freq_size_policy",
    "cb_eviction_policy",
    "BigSmallWorkload",
    "ZipfWorkload",
    "CacheRequest",
    "CacheSim",
    "CacheSimResult",
    "KeyspaceEvent",
    "format_keyspace_line",
    "parse_keyspace_line",
    "candidate_reward_matrix",
    "eviction_dataset_from_log",
    "reconstruct_rewards",
    "train_cb_eviction",
    "replay_evaluate",
    "replay_rank",
    "requests_from_log",
    "TraceStats",
    "read_trace",
    "write_trace",
    "working_set_bytes",
]

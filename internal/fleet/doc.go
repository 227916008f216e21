// Package fleet shards a lowrankd deployment behind a consistent-hash
// gateway.
//
// The unit of routing is the content-addressed spec key from
// internal/serve: SHA-256 over the canonical spec encoding, so an
// identical (matrix, method, tolerance, seed, sketch) request hashes
// to the same shard no matter which client sends it, and a factor
// computed on one shard is bit-identical to what any other shard would
// compute. That property is what makes the three fleet mechanisms
// safe:
//
//   - Ring: a consistent-hash ring (virtual nodes, copy-on-write
//     snapshots) maps keys to backends with bounded-jump rebalancing —
//     membership changes move only the affected backend's arcs.
//   - Gateway: the HTTP front door. It parses submissions just enough
//     to compute the content key, forwards to the ring owner
//     (preserving ?wait, batch and backpressure semantics), retries
//     the next ring node on dial errors, spills over on 429/503,
//     spends a jittered-backoff retry budget when every candidate
//     dial-fails, and pins job ids to the shard that admitted them.
//     It does not coalesce identical submits: they reach the same
//     shard, whose singleflight solves each key once.
//   - PeerClient + Health: shards peer-fill finished factors from the
//     key's owner set (GET /v1/cache/{key}, primary first then the
//     replica owners, best-effort) before solving locally, and with
//     replication R > 1 push each fresh solve asynchronously to the
//     other owner-set members (PUT /v1/cache/{key}) so a dead
//     primary's keys stay warm; the health checker probes /healthz
//     on jittered intervals, evicts after consecutive failures with
//     exponential backoff, and readmits on the first success.
//
// ChaosPlan mirrors dist.FaultPlan for the serving layer: seeded,
// deterministic kill/restart schedules for fleet tests, with
// per-victim kill/restart alternation and a MaxDown cap on concurrent
// downtime so generated plans are physically possible; the chaos soak
// (cmd/lowrank-gateway, verify.sh -soak) replays one against real
// processes.
//
// See DESIGN.md §4g for the full protocol spec and failure matrix.
package fleet

// Package serve turns the one-shot approximation library into a
// long-running service: a bounded job scheduler with admission control
// and graceful drain, a content-addressed result cache with
// singleflight deduplication, and a stdlib-only HTTP API that
// cmd/lowrankd exposes.
//
// The fixed-precision problem is a pure function of its request: the
// factors are fully determined by (matrix, algorithm, tolerance, block
// size, power, rank cap, sketch, seed, procs). serve exploits that in
// two layers:
//
//   - the Cache keys completed approximations by a SHA-256 digest of
//     the canonical request, holding them under an LRU byte budget, so
//     an identical request never recomputes;
//   - the Scheduler's singleflight table joins concurrent identical
//     requests onto the one in-flight job, so N simultaneous clients
//     cost exactly one solve.
//
// Two further tiers extend reuse beyond one process's memory:
//
//   - the DiskCache persists solved factors as checksummed frames in a
//     cache directory (atomic rename writes, LRU byte budget), so a
//     restarted daemon answers its pre-restart keys without re-solving;
//     corrupt or truncated files — a crash mid-rename — are deleted and
//     logged at open, never trusted and never fatal;
//   - a PeerFillFunc (wired by internal/fleet) lets a worker fetch an
//     already-computed result from the key's owners over
//     GET /v1/cache/{key} before solving locally; any failure falls
//     back to the local solve. The inverse hook, ReplicateFunc, pushes
//     each fresh solve toward the key's other owner-set members, and
//     the PUT /v1/cache/{key} endpoint accepts those frames
//     (checksum-validated, then installed into both tiers) so a dead
//     owner's keys stay warm on its replicas.
//
// Admission order is memory cache → singleflight → disk tier → queue,
// on one path: a Submit is a one-member admission of the all-or-nothing
// path SubmitBatch runs, never grouped with other work. The queue holds
// runs, and one function executes them: a Submit is a run of one, a
// batch's small fresh members share one run solved as one kernel-pool
// submission. Peer fill runs worker-side, after a job is admitted and
// started, and replication runs after a fresh solve settles.
//
// Admission is a bounded queue: when it is full, Submit fails with
// ErrQueueFull and the HTTP layer answers 429 with a Retry-After hint;
// when the scheduler is draining (SIGTERM), new work gets 503 while
// queued and in-flight jobs run to completion.
//
// Failures keep the structured classes of the fault-tolerant runtime:
// core.ClassifyFailure maps a solve error to breakdown / rank-crash /
// deadlock and the HTTP layer gives each class a distinct status code
// mirroring cmd/lowrank's exit codes (see DESIGN.md §4f for the
// table).
//
// Long distributed jobs opt into checkpointing (procs > 1 and
// checkpoint_every > 0): the ResumeRegistry retains each such job's
// dist.CheckpointStore until the job succeeds, so a job that was in
// flight when the daemon restarted (or crashed mid-run under fault
// injection) resumes from its last complete snapshot when the request
// is resubmitted, instead of starting over.
package serve

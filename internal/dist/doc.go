// Package dist is the distributed-memory substrate standing in for MPI in
// the paper's parallel implementations. It runs P ranks as goroutines in
// an SPMD style with point-to-point messages and tree-based collectives,
// and tracks a deterministic per-rank virtual clock: compute advances a
// rank's clock by flops·Gamma, communication by Alpha + Beta·bytes with
// max-propagation across message edges (the classic α–β/LogP model).
// DESIGN.md §4c is the formal specification of the model.
//
// Because the host has a single CPU core, real wall-clock speedup cannot
// be observed; the virtual clock is what the strong-scaling and kernel-
// breakdown experiments (Figs 4–6) report. The data movement itself is
// real: ranks exchange actual matrix blocks through channels, so the
// distributed algorithms are executed, not emulated.
//
// # Observability
//
// Every clock advance is observable. A Tracer attached to Config.Tracer
// receives one Event per compute span, point-to-point message half and
// collective call, stamped with virtual start/end times, byte and flop
// counts; with a nil Tracer the runtime takes the exact same code path
// as before tracing existed and allocates nothing extra. The built-in
// Trace collector records per-rank event timelines and can
//
//   - export them in the Chrome trace_event JSON format
//     (Trace.WriteChromeTrace) for chrome://tracing or Perfetto, and
//   - walk the recorded message edges backwards from the slowest rank to
//     produce a critical-path explanation of the virtual makespan
//     (Trace.CriticalPath).
//
// Independent of tracing, every RunE returns per-rank Stats with the
// total clock split into compute, latency (α), bandwidth (β·bytes) and
// wait (max-propagation idle) components, message/byte counters for both
// directions, per-kernel compute attribution and a per-collective-kind
// histogram. The identity
//
//	Time ≈ ComputeTime + LatencyTime + BandwidthTime + WaitTime
//
// holds for every rank to floating-point roundoff and is asserted in the
// package tests.
package dist

// Package tsvd provides the truncated-SVD baseline of the paper's
// evaluation: the Eckart–Young-optimal fixed-precision approximation used
// to compute the "minimum rank required" reference series of Figs 2–3.
// The paper excludes TSVD from runtime comparisons ("prohibitive
// computational cost") and so does this package — it exists as the
// accuracy yardstick. Its entry points still charge the dense SVD to the
// rank's dist.Comm, so a one-rank run reports that cost as modeled time.
package tsvd

// Package config holds everything that is decided before a cluster
// boots: the Section-4 capacity planner, the protocol timers, and the
// primary's throughput knobs (request batching and slot pipelining).
//
// # Capacity planning
//
// The planner answers the paper's Section-4 question — given a private
// cloud of S nodes with crash bound c, how many public-cloud nodes P
// must an enterprise rent to satisfy the hybrid network-size constraint
// N = 3m + 2c + 1? Four variants cover the provider statistics the
// paper considers: PublicNodesUniform (Equation 2, malicious ratio α),
// PublicNodesUniformMixed (Equation 3, α and crash ratio β),
// PublicNodesBounded (a concurrent-malicious bound M), and
// PublicNodesBoundedMixed (bounds on both classes). Degenerate regimes
// return the named errors ErrNoRentalNeeded, ErrPrivateCloudUseless and
// ErrPublicCloudTooFaulty so callers can explain *why* no rental makes
// sense.
//
// # Protocol timers
//
// Timing carries the paper's timers: τ (ViewChange, the wait for a
// COMMIT after a PREPARE before suspecting the primary), the client's
// retransmission deadline, the checkpoint period, and the log window
// (HighWaterMarkLag).
//
// # Throughput knobs
//
// Batching packs many client requests into one consensus slot,
// amortizing one agreement round over the batch. Pipelining lets the
// primary keep several consensus slots in flight at once instead of
// waiting for slot n to commit before proposing n+1, overlapping the
// network round trips of independent slots. At their zero values a
// slot carries one request, in the single-request frame, and the window
// is DefaultPipelineDepth slots; either way there is one proposal path
// (replica.Intake). See the Batching and Pipelining types for the exact
// semantics and Cluster for how they are plumbed into a deployment.
package config

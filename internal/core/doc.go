// Package core implements SeeMoRe, the paper's hybrid State Machine
// Replication protocol for public/private cloud environments. A Replica
// runs one of three modes (Section 5):
//
//   - Lion: trusted primary in the private cloud, two phases, O(n)
//     messages, quorum 2m+c+1 over the whole network.
//   - Dog: trusted primary, agreement delegated to 3m+1 public-cloud
//     proxies, two phases, O(n²) among proxies, quorum 2m+1.
//   - Peacock: untrusted primary, PBFT among 3m+1 proxies, three phases,
//     with a trusted transferer driving view changes.
//
// The package also implements the per-mode view changes and the
// dynamic mode-switching protocol of Section 5.4. Checkpointing with
// garbage collection, state transfer for lagging replicas and the
// view-change vote table are replica.Recovery's; this package supplies
// only each mode's trust rule for them (recovery.go).
//
// # Throughput path
//
// What a primary does with a request before it has a sequence number —
// dedupe, batching, the proposal window, holding requests back while
// the log window is closed or a view change runs — is replica.Intake's;
// this package tells it who proposes now (mayPropose), parks a request
// that arrives mid-view-change only at trusted replicas, and orders a
// slot from sequence assignment on (proposeBatch). Two knobs shape the
// intake, stacked on the paper's per-request agreement rounds (at their
// zero values: one request per slot, in the single-request frame, under
// a window of config.DefaultPipelineDepth slots):
//
//   - Batching (config.Batching): the primary packs up to BatchSize
//     client requests into one consensus slot, amortizing one agreement
//     round — and its signing work — over the batch.
//   - Pipelining (config.Pipelining): the primary keeps up to Depth
//     slots in flight concurrently instead of waiting for slot n to
//     commit before proposing n+1, overlapping the agreement round
//     trips of independent sequence numbers.
//
// Commits collect out of order in the message log; the executor applies
// slots strictly in sequence order, so pipelining never reorders
// execution. Each in-flight slot carries its own liveness timer
// (replica.Pending), so a stalled slot is suspected after τ even while
// its neighbors commit, and a view change re-proposes the whole
// in-flight window via the NEW-VIEW's P′/C′ sets. Once round trips
// overlap, authentication dominates, and auth.go is where its price is
// set: every replica takes a client's request on the client's tag (a
// relayed one on the client's signature, at the backup and at the
// primary alike), a Lion or Dog backup checks the trusted primary's seal
// and the payload digest, nothing more, while a Peacock primary verifies
// each client signature before admission and a Peacock proxy verifies
// the public primary's signature and every batched client signature in
// one pass (replica.Engine.VerifyRequests).
package core

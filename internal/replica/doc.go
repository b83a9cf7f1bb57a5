// Package replica provides the runtime shared by every protocol in this
// repository: the event loop that turns a transport endpoint into a
// single-threaded message handler, signing/verification helpers bound
// to a replica identity, and the ordered executor that applies
// committed requests to the state machine with exactly-once client
// semantics.
//
// Protocol packages (core, paxos, pbft, upright) implement the Handler
// interface; everything else — inbox draining, frame decoding, tick
// timers, crash emulation, durability and recovery — lives here exactly
// once.
//
// # Throughput machinery
//
// Three protocol-agnostic pieces back the primaries' throughput path:
//
//   - Batcher buffers client requests until a batch fills or its flush
//     deadline passes, so one agreement round is amortized over many
//     requests.
//   - Pending tracks proposed-but-uncommitted slots with one liveness
//     timer each (a stalled slot cannot hide behind a fast neighbor
//     committing) and doubles as the pipeline's window-occupancy count.
//   - Pump combines the two into the pipelined proposal loop: while the
//     window has room under config.Pipelining.Depth, carve slot-sized
//     payloads off the batcher and propose them, overlapping the
//     agreement round trips of independent sequence numbers.
//
// Commits then arrive out of order; Executor.ExecuteReady walks the
// message log strictly in sequence order, treating it as the reorder
// buffer, and stops at the first gap — commit n+2 before n+1 simply
// waits. The Engine's batch verification helpers (VerifyRequests,
// VerifyRecords) fan independent signature checks across a worker pool,
// since signature arithmetic becomes the hot path once pipelining
// overlaps the network round trips.
//
// # Recovery machinery
//
// Recovery is what the paper's State Transfer and View Changes
// subsections have in common across every protocol here. It owns the
// table of checkpoint evidence that arrived before local execution
// reached it (stabilize now or park, drained in ascending order as the
// executor catches up), the heuristic that asks for a state transfer (a
// full period of lag, or a sub-period gap the executor has sat on for a
// view-change period; one request per τ, retried on the tick),
// STATE-REQUEST serving, STATE-REPLY verification and install (ξ,
// snapshot digest, then the log suffix record by record), the boot-time
// recover-then-ask sequence over Journal's store, and the view-change
// vote table: one VIEW-CHANGE per sender and view, handed out in sender
// order, the smallest-demanded-view join scan, the deadline after which
// a stalled view change escalates or — if nobody joined — backs off,
// and the purge on view entry.
//
// What differs between protocols is whose word is believed, and that is
// all an engine supplies, through Trust: who may sign a CHECKPOINT, how
// many matching signers make it stable or prove it to a third party,
// whom to ask for state, which commit evidence a STATE-REPLY may carry
// and how a suffix record is adopted, plus the Stabilized notification.
// Who emits a CHECKPOINT is the flag the engine passes to Executed; how
// many demands make a replica join a view change is
// RecoveryConfig.JoinQuorum. VIEW-CHANGE contents and NEW-VIEW
// composition, validation and application stay in the engines. Engines
// never read Recovery's tables, and Recovery is engine-goroutine
// confined like everything else here. The package is inside simdet's
// scope: its map iterations must aggregate order-insensitively or sort.
package replica

// Package replica provides the runtime shared by every protocol in this
// repository: the event loop that turns a transport endpoint into a
// single-threaded message handler, signing, tagging and verification
// helpers bound to a replica identity, and the ordered executor that applies
// committed requests to the state machine with exactly-once client
// semantics.
//
// Protocol packages (core, pbft, upright) implement the Handler
// interface; everything else — inbox draining, frame decoding, tick
// timers, crash emulation, durability and recovery — lives here exactly
// once.
//
// # Journal and outbox
//
// Journal is the write side of durability: engines append a record
// before sending anything that depends on it. Appends only write. The
// Engine's outbox, the one place frames leave, makes them durable: the
// engine handles its inbox in drains (the envelopes queued when it takes
// the first, or one tick), holds the frames a drain sends while the
// journal has unsynced records, and at the end of the drain calls
// Journal.Sync once and sends them in order. So no frame leaves before
// every record appended before it is durable. A store error breaks the
// journal, and the engine fail-stops: it sends nothing until restart.
//
// # Intake
//
// In every mode of the paper, and in the PBFT baseline, a
// proposer does one thing with a client request: drop it if it is
// already being ordered, give it the next sequence number inside the
// log window, and hold it back while the window is closed. Intake is
// that path, once. It dedupes against the (client, timestamp) of every
// request buffered or in an unexecuted slot, packs requests into
// BatchSize slots with a flush deadline for partial ones, proposes while
// fewer than config.Pipelining.Depth slots are uncommitted (Pending is
// the occupancy count, and gives each slot its own liveness timer, so a
// stalled slot cannot hide behind a fast neighbor committing), and keeps
// everything else in arrival order.
//
// The engine calls Admit for a request it receives as the proposer in
// normal operation, Park — or nothing: that is its policy — for one that
// arrives during a view change, Pump whenever room may have appeared (a
// slot committed, a CHECKPOINT stabilized, a tick passed a flush
// deadline), Executed for every request it applies, EnterView after
// applying a NEW-VIEW and Resume when a lone suspicion backs off. Both
// re-admit what was held if the replica now proposes and drop it
// otherwise; EnterView first forgets the old view's open slots, which
// the NEW-VIEW re-issued. The engine answers two things: Open — it is
// the proposer of its view, no view change is in progress and the next
// sequence number fits the log window — and Propose, the protocol's own
// half from sequence assignment on (sign, journal, multicast, the
// proposer's vote, Pending.Mark). Engines never read Intake's tables.
//
// Commits then arrive out of order; Executor.ExecuteReady walks the
// message log strictly in sequence order, treating it as the reorder
// buffer, and stops at the first gap — commit n+2 before n+1 simply
// waits. The Engine's set helpers (VerifyRequests, VerifyRecords) check
// a set of independent signatures one by one, stopping at the first bad
// one: the client signatures in a public proposer's batch (PBFT), and
// the re-issued slots of a NEW-VIEW or a checkpoint certificate. A
// Peacock proxy takes each batch member on its tag in the client
// authenticator the PRE-PREPARE forwards, and verifies the signatures
// of only the members whose tag is missing or bad (AuthenticForwarded).
// A trusted
// proposer's receivers check neither — see Auth.
// A client's own REQUEST or READ is checked by the tag its receiver
// holds in the client's authenticator (AuthenticRequest); VerifyRequest,
// the client's signature, is left to where everyone must judge alike —
// a Peacock primary before admission, a backup before it relays and the
// primary receiving the relay — and to PBFT on receipt.
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

// Package storage is the durable storage subsystem behind crash-restart
// recovery: a segmented, CRC-framed write-ahead log plus a snapshot
// store keyed by checkpoint sequence number and state digest.
//
// The paper's State Transfer subsections assume every replica keeps a
// message log and checkpoint snapshots; the rest of this repository
// models that in memory (internal/mlog, replica.Executor). This package
// makes the model survive a process crash, which is the precondition
// for the paper's private-cloud failure model — nodes that "may fail by
// stopping, and may restart" — to actually hold for real processes.
//
// # Write-ahead log
//
// The WAL is a sequence of Records: accepted proposals, the replica's
// own votes, commit markers, stable-checkpoint markers, and view/mode
// entries. Engines append a record BEFORE acting on the event it
// describes (before multicasting a proposal, before voting, before
// executing a committed slot). Append only writes; Sync makes every
// earlier append durable, and the engine calls it once before the first
// frame that could depend on those appends leaves (see replica's
// outbox), so a replica that crashes and replays its log can never have
// externalized state it no longer remembers.
//
// On disk the log is a directory of segments (wal-<n>.seg). Each record
// is framed as
//
//	u32 length | u32 CRC-32C(body) | body
//
// so torn tail writes are detected and discarded on replay; corruption
// anywhere before the tail is an error. Segments rotate at a size
// bound, and Truncate drops whole segments whose records all fall at or
// below the stable checkpoint — WAL garbage collection rides the same
// checkpoint stabilization that garbage-collects the in-memory message
// log, keeping disk usage bounded.
//
// The fsync policy is configurable (config.Durability.FsyncEvery): 1
// makes every Sync cover every earlier append (nothing a replica said can
// be lost), N skips a Sync until N appends are pending (bounded loss of
// the most recent appends on a power failure; a plain process crash
// loses nothing either way because the OS still holds the written
// pages). A failed fsync latches: every later Append and Sync reports it.
//
// # Snapshot store
//
// SaveSnapshot persists the composite checkpoint snapshot (service
// state + client table, see replica.Executor) together with its
// sequence number, state digest and stability proof ξ. Writes are
// atomic (write-temp-then-rename) and CRC-protected; only the newest
// intact snapshot is kept. Recovery restores the latest snapshot and
// replays the WAL suffix above it.
//
// Two implementations exist: Disk (real deployments, cmd/seemore
// -data-dir) and Mem (tests and the simulated cluster, where a shared
// Mem store models a disk that survives the process; FailNth scripts a
// failed Append or Sync). Engines accept
// the Store interface, so the legacy fully-in-memory path is simply a
// nil store.
package storage

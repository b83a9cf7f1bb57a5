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
// executing a committed slot). Append only buffers; Sync writes and
// makes durable every earlier append, and the engine calls it once
// before the first frame that could depend on those appends leaves (see
// replica's outbox), so a replica that crashes and replays its log can
// never have externalized state it no longer remembers. An append no
// Sync covered may be lost in a crash, but nothing that depends on it
// has left.
//
// On disk the log is a directory of segments (wal-<n>.seg). Each record
// is framed as
//
//	u32 length | u32 CRC-32C(body) | body
//
// Segments are preallocated (fallocate on linux), so Sync is one
// positioned write at the segment's logical end and one fdatasync that
// has no file size to journal. A segment's log ends at the first frame
// boundary from which every byte is zero. A bad frame with only zeros
// behind it is a torn tail write, discarded on reopen; corruption
// anywhere before the tail is an error. A write that would run past
// the preallocated size goes to a fresh segment, and Truncate drops
// whole segments whose records all fall at or below the stable
// checkpoint — WAL garbage collection rides the same checkpoint
// stabilization that garbage-collects the in-memory message log,
// keeping disk usage bounded.
//
// The fsync policy is not configurable: every Sync writes and
// fdatasyncs, so a returned Sync covers every earlier append and
// nothing a replica said can be lost. Appends no Sync has written yet
// are lost in any crash. A failed write or fdatasync latches: every
// later Append and Sync reports it.
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
// Mem store models a disk that survives the process, keeping appends
// pending until Sync as Disk does; FailNth scripts a failed Sync).
// Engines accept the Store interface, so the legacy fully-in-memory
// path is simply a nil store.
package storage

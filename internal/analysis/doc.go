// Package analysis is the repository's invariant-enforcing static
// analysis suite: a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis shape (Analyzer, Pass, Diagnostic)
// plus the four custom passes that turn this repo's cross-PR contracts
// into compiler-grade checks:
//
//   - clockcheck: no wall-clock reads (time.Now/Sleep/After/NewTimer/
//     NewTicker/Since/...) in non-test code outside internal/clock.
//     Protocol time must flow through the injected clock.Clock, or the
//     deterministic simulation and the lease-safety-under-skew argument
//     silently stop covering the code (PR 7's contract).
//   - releasecheck: every pooled frame minted by message.Encode/
//     EncodeSigned is Released on all paths, never used after Release,
//     and never retained past the Endpoint.Send no-retain boundary
//     (PR 9's contract).
//   - simdet: in the deterministic packages (internal/sim, internal/core,
//     internal/pbft, internal/replica) no global
//     math/rand state, no map iteration whose visit order can escape
//     without a sort, and no naked go statements (the sim drives engines
//     single-threaded).
//   - errsticky: no dropped error results from internal/storage calls —
//     the sticky-error durability contract means a dropped Append/Sync/
//     Close error is a silent durability hole (PR 3's contract).
//
// The x/tools module is deliberately not a dependency: the loader in
// load.go shells out to `go list -deps -export -json` and feeds the
// build cache's export data to the stdlib go/importer, so the suite
// builds with nothing but the standard library and the go toolchain.
//
// Deliberate exceptions are annotated in source:
//
//	//lint:allow <analyzer> <reason>       (this line or the next)
//	//lint:file-allow <analyzer> <reason>  (whole file)
//
// The reason is mandatory — an allow without one suppresses nothing.
// cmd/seemore-vet is the multichecker driver; `make lint` is the gate.
package analysis

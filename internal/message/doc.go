// Package message defines every message exchanged by SeeMoRe and the
// baseline protocols (PBFT, S-UpRight; the CFT baseline is Lion),
// together with a deterministic binary codec. Determinism matters
// because signatures are computed over encoded bytes: the same logical
// message must always produce the same bytes on every node.
//
// One Message struct covers all protocols; unused fields stay at their
// zero values and the per-kind validator rejects malformed
// combinations. This mirrors how the paper layers all of its modes over
// one communication substrate (BFT-SMaRt's, in their case).
//
// # Wire compatibility of the throughput knobs
//
// Every message and Signed record carries its requests in one list,
// Payload: exactly µ on a REQUEST or READ, a slot's ordered batch on a
// proposal. The wire writes the list as a uvarint member count and the
// members, so a slot of one request and a slot of many share one layout,
// and BatchDigest of a one-member set is exactly D(µ); nodes configured
// with different batch sizes interoperate. Pipelining adds no wire
// surface at all — a primary merely has PREPAREs/PRE-PREPAREs for several
// sequence numbers outstanding at once, each of them an ordinary frame —
// so nodes configured with different window depths interoperate too.
//
// # Signed evidence
//
// Signed is the compact record of a previously sent signed message;
// view changes carry sets of them (the paper's P, C and ξ) and NEW-VIEW
// messages carry the re-issued P′ and C′ covering the whole in-flight
// window of the old view. Signatures cover only the fixed-size tuple
// (Kind, From, View, Seq, Digest) — payloads are bound by digest — so
// one signature serves both the wire message and the later evidence
// record, and independent records can be verified concurrently.
//
// Kinds that are never evidence — consumed by their receiver, exported
// by no view change — carry pairwise tags in the same Sig field instead
// (authenticator.go); which kinds those are is each engine's auth table.
package message

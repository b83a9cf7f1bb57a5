// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// This is better known as the Edwards curve equivalent to Curve25519, and is
// the curve used by the Ed25519 signature scheme.
//
// This copy holds only what the signature check in package crypto
// calls. Everything but split.go is the Go standard library's
// crypto/internal/fips140/edwards25519 (Go 1.24, BSD license retained in
// every file) with its import paths mapped onto encoding/binary and
// crypto/subtle and the code that check does not reach removed: the
// constant-time scalar multiplications and their tables, the scalar
// arithmetic past what SetUniformBytes needs, and the arm64 assembly
// (every other architecture and the purego tag take the generic field
// code, as in the standard library). split.go adds the fixed-base split
// tables and the double-scalar multiplication over them.
package edwards25519

package message

// Frame wraps one Marshal output behind the shape of the retired pooled
// encoder.
//
// Deprecated: Frame and Encode exist only for the codec-cost timing in
// the repository benchmark (benchmark/analyze.go), which cannot change in
// the same revision as this package. Call Marshal instead. ROADMAP item
// 1(c), a benchmark-only change, moves that call to Marshal and deletes
// this file.
type Frame struct{ buf []byte }

// Encode returns Marshal(m) as a Frame.
//
// Deprecated: use Marshal.
func Encode(m *Message) *Frame { return &Frame{buf: Marshal(m)} }

// Bytes returns the encoded frame.
func (f *Frame) Bytes() []byte { return f.buf }

// Release does nothing: frames are immutable and garbage-collected.
func (f *Frame) Release() {}

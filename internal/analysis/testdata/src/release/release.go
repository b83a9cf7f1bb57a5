// Package release exercises releasecheck against the message fixture's
// pooled-frame lifecycle: every Encode result must be Released on all
// paths, never touched after Release, and never retained past Send.
package release

import (
	"errors"

	"message"
)

var errFail = errors.New("fail")

// Holder stands in for any long-lived structure a frame must not
// escape into.
type Holder struct{ last []byte }

// LeakFallThrough never releases the frame.
func LeakFallThrough(ep *message.Endpoint, m *message.Message) {
	f := message.Encode(m) // want `not released on the fall-through path`
	_ = ep.Send(1, f.Bytes())
}

// LeakOnEarlyReturn releases on the happy path only.
func LeakOnEarlyReturn(ep *message.Endpoint, m *message.Message, fail bool) error {
	f := message.Encode(m)
	if fail {
		return errFail // want `return without releasing pooled frame`
	}
	err := ep.Send(1, f.Bytes())
	f.Release()
	return err
}

// Dropped never binds the frame at all, so nothing can release it.
func Dropped(m *message.Message) {
	message.Encode(m) // want `is dropped`
}

// DoubleRelease returns the buffer to the pool twice.
func DoubleRelease(ep *message.Endpoint, m *message.Message) {
	f := message.Encode(m)
	_ = ep.Send(1, f.Bytes())
	f.Release()
	f.Release() // want `released twice`
}

// UseAfterRelease touches the frame once the pool owns the buffer
// again.
func UseAfterRelease(ep *message.Endpoint, m *message.Message) {
	f := message.Encode(m)
	f.Release()
	_ = ep.Send(1, f.Bytes()) // want `use of pooled frame "f" after Release`
}

// UseAliasAfterRelease reaches the pooled bytes through a Bytes()
// alias instead of the frame itself.
func UseAliasAfterRelease(ep *message.Endpoint, m *message.Message) {
	f := message.Encode(m)
	b := f.Bytes()
	f.Release()
	_ = ep.Send(1, b) // want `use of pooled frame "f" after Release`
}

// RetainField stores the pooled bytes into caller-owned structure.
func RetainField(h *Holder, m *message.Message) {
	f := message.Encode(m)
	defer f.Release()
	h.last = f.Bytes() // want `stored into non-local structure`
}

// RetainAlias stores an alias of the pooled bytes.
func RetainAlias(h *Holder, m *message.Message) {
	f := message.Encode(m)
	b := f.Bytes()
	h.last = b // want `stored into non-local structure`
	f.Release()
}

// SendOnChannel hands the bytes to a receiver that will race the pool.
func SendOnChannel(ch chan []byte, m *message.Message) {
	f := message.Encode(m)
	defer f.Release()
	ch <- f.Bytes() // want `sent on a channel`
}

// GoCapture lets a goroutine outlive the Send boundary with the bytes.
func GoCapture(m *message.Message) {
	f := message.Encode(m)
	defer f.Release()
	go func() { _ = f.Bytes() }() // want `captured by a goroutine`
}

// SendThenRelease is the canonical conforming shape.
func SendThenRelease(ep *message.Endpoint, m *message.Message) error {
	f := message.Encode(m)
	err := ep.Send(1, f.Bytes())
	f.Release()
	return err
}

// DeferRelease is the other conforming shape: the defer covers every
// return.
func DeferRelease(ep *message.Endpoint, s *message.Signed) error {
	f := message.EncodeSigned(s)
	defer f.Release()
	return ep.Send(2, f.Bytes())
}

// BranchesBothRelease releases on both sides of the split.
func BranchesBothRelease(ep *message.Endpoint, m *message.Message, fast bool) {
	f := message.Encode(m)
	if fast {
		_ = ep.Send(1, f.Bytes())
		f.Release()
	} else {
		f.Release()
	}
}

// Outbox stands in for the replica engine's outbox, which owns held
// frames until its journal is synced and then releases them.
type Outbox struct{ held []*message.Frame }

func (o *Outbox) stage(f *message.Frame) { o.held = append(o.held, f) }

// Post is the outbox's staging site: the one documented ownership
// transfer, which the allow covers, beside the usual send-then-release.
func (o *Outbox) Post(ep *message.Endpoint, m *message.Message, hold bool) {
	f := message.Encode(m)
	if hold {
		o.stage(f) //lint:allow releasecheck ownership passes to the outbox, which releases f once the journal is synced
		return
	}
	_ = ep.Send(1, f.Bytes())
	f.Release()
}

// PostUnannounced is the same transfer without the allow.
func (o *Outbox) PostUnannounced(m *message.Message) {
	f := message.Encode(m)
	o.stage(f)
	return // want `return without releasing pooled frame`
}

// StashFrame keeps the frame itself — not just its bytes — in
// caller-owned structure anywhere but the outbox's staging site.
func StashFrame(o *Outbox, m *message.Message) {
	f := message.Encode(m)     // want `not released on the fall-through path`
	o.held = append(o.held, f) // want `stored into non-local structure`
}

package crypto

import "sync"

// Counts is what passed through a Counting suite: signatures and tags
// produced, checked, and — of those checked — rejected.
type Counts struct {
	Signs, Verifies, BadVerifies      uint64
	Tags, TagVerifies, BadTagVerifies uint64
}

// Counting wraps a Suite and counts every operation, in total and per
// claimed author (the signer of a signature, the from end of a tag).
// Tests use it to pin a protocol's authentication budget per committed
// request and to prove that an injected forgery reached — and failed —
// the check meant to stop it. Wrapping changes no verdict: every
// signature, batched or not, is one Verify call and one count.
type Counting struct {
	inner Suite

	mu     sync.Mutex
	totals Counts
	by     map[Principal]*Counts
}

// Count wraps s.
func Count(s Suite) *Counting {
	return &Counting{inner: s, by: make(map[Principal]*Counts)}
}

// Totals returns the counts over all authors.
func (c *Counting) Totals() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// By returns the counts of operations claiming author.
func (c *Counting) By(author Principal) Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.by[author]; n != nil {
		return *n
	}
	return Counts{}
}

func (c *Counting) note(author Principal, add func(*Counts)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.by[author]
	if n == nil {
		n = &Counts{}
		c.by[author] = n
	}
	add(n)
	add(&c.totals)
}

// Sign implements Suite.
func (c *Counting) Sign(signer Principal, msg []byte) []byte {
	c.note(signer, func(n *Counts) { n.Signs++ })
	return c.inner.Sign(signer, msg)
}

// Verify implements Suite.
func (c *Counting) Verify(signer Principal, msg, sig []byte) bool {
	ok := c.inner.Verify(signer, msg, sig)
	c.note(signer, func(n *Counts) {
		n.Verifies++
		if !ok {
			n.BadVerifies++
		}
	})
	return ok
}

// Tag implements Suite.
func (c *Counting) Tag(from, to Principal, msg []byte) [TagSize]byte {
	c.note(from, func(n *Counts) { n.Tags++ })
	return c.inner.Tag(from, to, msg)
}

// VerifyTag implements Suite.
func (c *Counting) VerifyTag(from, to Principal, msg, tag []byte) bool {
	ok := c.inner.VerifyTag(from, to, msg, tag)
	c.note(from, func(n *Counts) {
		n.TagVerifies++
		if !ok {
			n.BadTagVerifies++
		}
	})
	return ok
}

// Name implements Suite.
func (c *Counting) Name() string { return c.inner.Name() }

package client

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/statemachine"
)

// MetaGroup is the consensus group holding the authoritative placement
// map. Pinning it to group 0 keeps bootstrap trivial: group 0 exists in
// every deployment, including the unsharded one.
const MetaGroup ids.GroupID = 0

// placementOps adapts a Router's per-group clients to the
// placement.Ops contract the migration controller drives. Every call
// is an ordered invocation on the addressed group — the controller's
// steps are replicated state transitions, never local mutations — and
// the concrete op encodings live in internal/statemachine, which keeps
// internal/placement free of any dependency on this layer.
type placementOps struct {
	r *Router
}

// PlacementOps exposes the router's groups as placement.Ops;
// placement.NewController(r.PlacementOps()) is the reshard driver.
func (r *Router) PlacementOps() placement.Ops { return &placementOps{r: r} }

// call orders op on group g and returns its result.
func (o *placementOps) call(g ids.GroupID, op []byte) ([]byte, error) {
	if int(g) < 0 || int(g) >= len(o.r.clients) {
		return nil, fmt.Errorf("client: placement op for unprovisioned group %v", g)
	}
	return o.r.clients[g].Invoke(op)
}

// invoke is call, with the result split into status and payload.
func (o *placementOps) invoke(g ids.GroupID, op []byte) (byte, []byte, error) {
	res, err := o.call(g, op)
	if err != nil {
		return 0, nil, err
	}
	status, payload := statemachine.DecodeResult(res)
	return status, payload, nil
}

// MetaGet implements placement.Ops (a linearized read of the
// authoritative map).
func (o *placementOps) MetaGet() (*placement.Map, error) {
	status, payload, err := o.invoke(MetaGroup, statemachine.EncodeMetaGet())
	if err != nil {
		return nil, err
	}
	if status != statemachine.KVOK {
		return nil, fmt.Errorf("client: meta map read failed with status %d (meta group unseeded?)", status)
	}
	m, err := placement.DecodeMap(payload)
	if err != nil {
		return nil, err
	}
	o.r.adoptPlacement(m)
	return m, nil
}

// MetaApply implements placement.Ops.
func (o *placementOps) MetaApply(c placement.Cmd) (*placement.Map, *placement.Map, error) {
	status, payload, err := o.invoke(MetaGroup, statemachine.EncodeMetaApply(c))
	if err != nil {
		return nil, nil, err
	}
	switch status {
	case statemachine.KVOK:
		m, err := placement.DecodeMap(payload)
		if err != nil {
			return nil, nil, err
		}
		o.r.adoptPlacement(m)
		return m, nil, nil
	case statemachine.KVWrongEpoch:
		// A migration is already pending; the payload is the current map
		// naming it, so the caller can finish it first.
		cur, err := placement.DecodeMap(payload)
		if err != nil {
			return nil, nil, err
		}
		o.r.adoptPlacement(cur)
		return nil, cur, placement.ErrPending
	default:
		return nil, nil, fmt.Errorf("client: meta apply of %v rejected with status %d", c.Kind, status)
	}
}

// MetaDone implements placement.Ops.
func (o *placementOps) MetaDone(epoch uint64) (*placement.Map, error) {
	status, payload, err := o.invoke(MetaGroup, statemachine.EncodeMetaDone(epoch))
	if err != nil {
		return nil, err
	}
	if status != statemachine.KVOK {
		return nil, fmt.Errorf("client: meta done of epoch %d rejected with status %d", epoch, status)
	}
	m, err := placement.DecodeMap(payload)
	if err != nil {
		return nil, err
	}
	o.r.adoptPlacement(m)
	return m, nil
}

// Seal implements placement.Ops. A KVLocked refusal (an in-range
// transaction still holds its locks) is resolved — presumed abort for
// an abandoned coordinator, roll-forward for a decided one — and
// reported as ErrSealBusy so the controller retries; a live transaction
// that finishes on its own clears the next attempt anyway.
func (o *placementOps) Seal(g ids.GroupID, m *placement.Map) (placement.SealResult, error) {
	res, err := o.call(g, statemachine.EncodePlaceSeal(m))
	if err != nil {
		return placement.SealResult{}, err
	}
	switch status, payload := statemachine.DecodeResult(res); status {
	case statemachine.KVOK:
		return statemachine.DecodeSealResult(res)
	case statemachine.KVLocked:
		if holder, ok := statemachine.DecodeLockHolder(payload); ok {
			// Best-effort: a still-live coordinator finishing first is
			// just as good as our resolve succeeding.
			_, _ = o.r.ResolveTx(g, holder)
		}
		return placement.SealResult{}, placement.ErrSealBusy
	default:
		return placement.SealResult{}, fmt.Errorf("client: seal on %v rejected with status %d", g, status)
	}
}

// Export implements placement.Ops.
func (o *placementOps) Export(g ids.GroupID, epoch uint64, start string, limit int) ([]placement.Pair, bool, error) {
	res, err := o.call(g, statemachine.EncodePlaceExport(epoch, start, limit))
	if err != nil {
		return nil, false, err
	}
	pairs, more, err := statemachine.DecodeScanResult(res)
	if err != nil {
		return nil, false, fmt.Errorf("client: export from %v: %w", g, err)
	}
	return pairs, more, nil
}

// Install implements placement.Ops.
func (o *placementOps) Install(g ids.GroupID, m *placement.Map, pairs []placement.Pair, done bool, digest [32]byte) error {
	res, err := o.call(g, statemachine.EncodePlaceInstall(m, pairs, done, crypto.Digest(digest)))
	if err != nil {
		return err
	}
	if _, err := statemachine.DecodeInstallResult(res); err != nil {
		return fmt.Errorf("client: install on %v: %w", g, err)
	}
	return nil
}

// Complete implements placement.Ops.
func (o *placementOps) Complete(g ids.GroupID, epoch uint64) error {
	status, _, err := o.invoke(g, statemachine.EncodePlaceComplete(epoch))
	if err != nil {
		return err
	}
	if status != statemachine.KVOK {
		return fmt.Errorf("client: complete on %v rejected with status %d", g, status)
	}
	return nil
}

// adoptPlacement folds an authoritative map into the router's cache (a
// no-op for stale maps).
func (r *Router) adoptPlacement(m *placement.Map) { r.place.Update(m) }

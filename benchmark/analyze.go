package main

//lint:file-allow clockcheck the standalone codec and signature loops are timed on the host clock

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/storage"
	"repro/internal/transport"
)

// join indexes a traced run's spans by request and slot so that the
// time of one request can be split into stages.
type join struct {
	c     *cluster
	spans []span

	proposed map[reqID]*span // first proposal frame carrying the request to leave its proposer
	replied  map[reqID]*span // first REPLY frame for the request to leave a replica
	appends  map[nodeSeq][]*span
	applies  map[nodeReq]*span
	slotLead map[uint64]reqID // slot → first request of its proposal
}

type nodeSeq struct {
	node transport.Addr
	seq  uint64
}

type nodeReq struct {
	node transport.Addr
	req  reqID
}

func isProposal(f *frameInfo) bool {
	return (f.kind == message.KindPrepare || f.kind == message.KindPrePrepare) && len(f.reqs) > 0
}

func newJoin(c *cluster, spans []span) *join {
	j := &join{
		c:        c,
		spans:    spans,
		proposed: make(map[reqID]*span),
		replied:  make(map[reqID]*span),
		appends:  make(map[nodeSeq][]*span),
		applies:  make(map[nodeReq]*span),
		slotLead: make(map[uint64]reqID),
	}
	earliest := func(m map[reqID]*span, id reqID, s *span) {
		if old, ok := m[id]; !ok || s.start < old.start {
			m[id] = s
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.name {
		case spanSend:
			switch {
			case isProposal(s.frame):
				for _, id := range s.frame.reqs {
					earliest(j.proposed, id, s)
				}
				if _, ok := j.slotLead[s.seq]; !ok {
					j.slotLead[s.seq] = s.frame.reqs[0]
				}
			case s.frame.kind == message.KindReply:
				earliest(j.replied, s.frame.reply, s)
			}
		case spanAppend:
			k := nodeSeq{s.node, s.seq}
			j.appends[k] = append(j.appends[k], s)
		case spanApply:
			j.applies[nodeReq{s.node, s.req}] = s
		}
	}
	return j
}

// stages is one write's time split at the two frames visible from
// outside: the proposal leaving the primary and the first REPLY leaving
// a replica.
//
//	replica.submit  Invoke starts → proposal leaves: client sign and send, admission, batcher wait
//	core.order      proposal leaves → first REPLY leaves: the agreement rounds
//	client.reply    first REPLY leaves → Invoke returns: the reply quorum
//
// The primary's WAL appends for the slot and the replying replica's
// Apply are children of the stage they fall in; a stage's self time
// excludes them.
type stages struct {
	seq                   uint64
	proposed, replied     int64
	submitKids, orderKids []*span
	submitMS, orderMS     float64 // self times
	journalMS, applyMS    float64 // the children
	replyMS               float64
}

func (j *join) stages(id reqID, op opRec) (stages, bool) {
	p, r := j.proposed[id], j.replied[id]
	if p == nil || r == nil || p.start < op.start || r.start < p.start || op.end < r.start {
		return stages{}, false
	}
	st := stages{seq: p.seq, proposed: p.start, replied: r.start}
	for _, a := range j.appends[nodeSeq{p.node, p.seq}] {
		switch {
		case a.start >= op.start && a.end <= p.start:
			st.submitKids = append(st.submitKids, a)
		case a.start >= p.start && a.end <= r.start:
			st.orderKids = append(st.orderKids, a)
		default:
			continue
		}
		st.journalMS += a.us() / 1e3
	}
	if ap := j.applies[nodeReq{r.node, id}]; ap != nil && ap.start >= p.start && ap.end <= r.start {
		st.orderKids = append(st.orderKids, ap)
		st.applyMS = ap.us() / 1e3
	}
	st.submitMS = float64(p.start-op.start) / 1e6
	for _, k := range st.submitKids {
		st.submitMS -= k.us() / 1e3
	}
	st.orderMS = float64(r.start-p.start) / 1e6
	for _, k := range st.orderKids {
		st.orderMS -= k.us() / 1e3
	}
	st.replyMS = float64(op.end-r.start) / 1e6
	return st, true
}

// owner names the request a boundary crossing worked for: the one it
// carries or answers, or the first request of the slot it belongs to.
func (j *join) owner(s *span) (reqID, bool) {
	lead := func() (reqID, bool) {
		id, ok := j.slotLead[s.seq]
		return id, ok
	}
	switch s.name {
	case spanSend:
		switch f := s.frame; {
		case f.kind == message.KindReply:
			return f.reply, true
		case len(f.reqs) > 0:
			return f.reqs[0], true
		case f.kind == message.KindPrepare || f.kind == message.KindAccept ||
			f.kind == message.KindCommit || f.kind == message.KindInform:
			return lead()
		}
	case spanAppend:
		if s.recKind == storage.KindProposal || s.recKind == storage.KindVote || s.recKind == storage.KindCommit {
			return lead()
		}
	case spanApply:
		return s.req, s.req.ts != 0
	}
	return reqID{}, false
}

// perLayer derives the layer metrics of a traced run. Every metric is
// reported on every workload; a layer that did no work reports 0.
func perLayer(j *join, w window, firstMS float64) map[string]metric {
	c := j.c
	mb := c.cfg.Membership
	primary := transport.ReplicaAddr(mb.Primary(c.wl.mode, 0))
	retryMS := float64(c.cfg.Timing.ClientRetry) / 1e6

	// Operations, and the stages of the writes among them.
	var (
		lat, putLat, readLat                            []float64
		submit, order, reply, journal, applied, slotLen []float64
		stalled, joined                                 int
		slotOpen, slotClose                             = map[uint64]int64{}, map[uint64]int64{}
	)
	for _, s := range c.sessions {
		for _, op := range s.ops {
			if op.latencyMS() >= retryMS {
				stalled++
			}
			if !op.ok {
				continue
			}
			lat = append(lat, op.latencyMS())
			if op.read {
				readLat = append(readLat, op.latencyMS())
				continue
			}
			putLat = append(putLat, op.latencyMS())
			st, ok := j.stages(reqID{s.cl.ID(), op.ts}, op)
			if !ok {
				continue
			}
			joined++
			submit = append(submit, st.submitMS)
			order = append(order, st.orderMS)
			reply = append(reply, st.replyMS)
			journal = append(journal, st.journalMS)
			applied = append(applied, st.applyMS)
			slotOpen[st.seq] = st.proposed
			if at, ok := slotClose[st.seq]; !ok || st.replied < at {
				slotClose[st.seq] = st.replied
			}
		}
	}
	for seq, open := range slotOpen {
		slotLen = append(slotLen, float64(slotClose[seq]-open))
	}
	n := float64(len(lat))

	// Boundary crossings inside the window.
	var (
		frames, bytesSent, privBytes, cross, clientFrames, replyFrames float64
		messages, slots, slotOps, replicaFrames, newViews              float64
		sigs, verifies, batchVerifies                                  float64
		sendUS, appendUS, applyUS, queryUS, snapUS, saveUS, truncUS    []float64
		primarySendUS, appendBytes                                     float64
		framesOf, messagesOf                                           = map[message.Kind]float64{}, map[message.Kind]float64{}
	)
	for i := range j.spans {
		s := &j.spans[i]
		if s.start < w.start || s.start > w.end {
			continue
		}
		switch s.name {
		case spanSend:
			f := s.frame
			frames++
			framesOf[f.kind]++
			bytesSent += float64(s.bytes)
			sendUS = append(sendUS, s.us())
			if s.node == primary {
				primarySendUS += s.us()
			}
			fromClient := s.node.IsClient()
			switch {
			case fromClient:
				clientFrames++
			case mb.IsTrusted(s.node.Replica()):
				privBytes += float64(s.bytes)
			}
			if !fromClient {
				replicaFrames++
				if !s.to.IsClient() && mb.IsTrusted(s.node.Replica()) != mb.IsTrusted(s.to.Replica()) {
					cross++
				}
			}
			if f.kind == message.KindReply {
				replyFrames++
			}
			// Signature work, computed from what was delivered: the
			// receiver verifies a signed frame once, a request once where
			// it arrives alone, and a proposal's requests as a batch.
			carriesRequest := f.kind == message.KindRequest || f.kind == message.KindRead
			if f.signed {
				verifies++
			}
			if carriesRequest {
				verifies++
			}
			if isProposal(f) {
				batchVerifies += float64(len(f.reqs))
			}
			if s.first {
				messages++
				messagesOf[f.kind]++
				if f.signed {
					sigs++
				}
				if carriesRequest && fromClient {
					sigs++ // the client signed the request it sent
				}
				if isProposal(f) {
					slots++
					slotOps += float64(len(f.reqs))
				}
				if f.kind == message.KindNewView {
					newViews++
				}
			}
		case spanAppend:
			appendUS = append(appendUS, s.us())
			appendBytes += float64(s.bytes)
		case spanSaveSnapshot:
			saveUS = append(saveUS, s.us())
		case spanTruncate:
			truncUS = append(truncUS, s.us())
		case spanApply:
			applyUS = append(applyUS, s.us())
		case spanQuery:
			queryUS = append(queryUS, s.us())
		case spanSnapshot:
			snapUS = append(snapUS, s.us())
		}
	}

	encodeNS, decodeNS := codecCost(c.tr, framesOf, messagesOf)
	signUS, verifyUS, batchUS := signatureCost(c)
	putP50 := median(putLat)

	return map[string]metric{
		"client.invoke_p99_ms":                {quantile(lat, 0.99), "ms"},
		"client.put_p50_ms":                   {putP50, "ms"},
		"client.read_p50_ms":                  {median(readLat), "ms"},
		"client.first_request_ms":             {firstMS, "ms"},
		"client.stalled_ops":                  {float64(stalled), "count"},
		"client.request_frames_per_op":        {per(clientFrames, n), "count"},
		"client.reply_frames_per_op":          {per(replyFrames, n), "count"},
		"client.reply_ms_p50":                 {median(reply), "ms"},
		"load.dispatch_late_ms_max":           {quantile(w.lateMS, 1), "ms"},
		"transport.frames_per_op":             {per(frames, n), "count"},
		"transport.bytes_per_op":              {per(bytesSent, n), "B"},
		"transport.private_bytes_per_op":      {per(privBytes, n), "B"},
		"transport.cross_cloud_frames_per_op": {per(cross, n), "count"},
		"transport.send_us_per_op":            {per(sum(sendUS), n), "us"},
		"transport.send_p99_us":               {quantile(sendUS, 0.99), "us"},
		"transport.primary_send_share":        {per(primarySendUS, sum(sendUS)), "ratio"},
		"message.encode_ns_per_frame":         {encodeNS, "ns"},
		"message.decode_ns_per_frame":         {decodeNS, "ns"},
		"message.codec_us_per_op":             {per(messages*encodeNS+frames*decodeNS, n) / 1e3, "us"},
		"crypto.sign_us":                      {signUS, "us"},
		"crypto.verify_us":                    {verifyUS, "us"},
		"crypto.batchverify_us_per_sig":       {batchUS, "us"},
		"crypto.sigs_per_op":                  {per(sigs, n), "count"},
		"crypto.verifies_per_op":              {per(verifies+batchVerifies, n), "count"},
		"crypto.us_per_op":                    {per(sigs*signUS+verifies*verifyUS+batchVerifies*batchUS, n), "us"},
		"replica.ops_per_slot":                {per(slotOps, slots), "count"},
		"replica.submit_ms_p50":               {median(submit), "ms"},
		"replica.slots_in_flight_mean":        {per(sum(slotLen), float64(w.end-w.start)), "count"},
		"replica.catchup_ms":                  {w.catchupMS, "ms"},
		"core.order_ms_p50":                   {median(order), "ms"},
		"core.frames_per_slot":                {per(replicaFrames, slots), "count"},
		"core.view_changes":                   {newViews, "count"},
		"core.outage_ms":                      {w.outageMS, "ms"},
		"storage.appends_per_op":              {per(float64(len(appendUS)), n), "count"},
		"storage.bytes_per_op":                {per(appendBytes, n), "B"},
		"storage.append_us_p50":               {median(appendUS), "us"},
		"storage.append_us_p99":               {quantile(appendUS, 0.99), "us"},
		"storage.append_us_per_op":            {per(sum(appendUS), n), "us"},
		"storage.primary_append_ms_per_slot":  {per(sum(journal), float64(len(journal))), "ms"},
		"storage.snapshot_ms_p50":             {median(saveUS) / 1e3, "ms"},
		"storage.truncate_ms_p50":             {median(truncUS) / 1e3, "ms"},
		"statemachine.apply_us_p50":           {median(applyUS), "us"},
		"statemachine.apply_us_per_op":        {per(sum(applyUS), n), "us"},
		"statemachine.snapshot_ms_p50":        {median(snapUS) / 1e3, "ms"},
		"statemachine.query_us_p50":           {median(queryUS), "us"},
		"trace.throughput_ops":                {n / w.seconds(), "1/s"},
		"trace.joined_pct":                    {100 * per(float64(joined), float64(len(putLat))), "%"},
		// The stages' medians against the median write latency: how much
		// of a write's time the spans account for.
		"trace.budget_pct": {100 * per(median(submit)+median(order)+median(journal)+median(applied)+median(reply), putP50), "%"},
	}
}

// codecCost times message.Encode and message.Unmarshal standalone over
// the frames captured at the transport seam, and weights the per-kind
// costs by the workload's own mix: encodes by messages (a multicast
// encodes once), decodes by frames (every receiver decodes).
func codecCost(tr *tracer, framesOf, messagesOf map[message.Kind]float64) (encodeNS, decodeNS float64) {
	const rounds = 64
	var encTotal, encWeight, decTotal, decWeight float64
	for kind, samples := range tr.samples {
		msgs := make([]*message.Message, 0, len(samples))
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			msgs = msgs[:0]
			for _, frame := range samples {
				m, err := message.Unmarshal(frame)
				if err != nil {
					continue // cannot happen: describe only samples frames that decoded
				}
				msgs = append(msgs, m)
			}
		}
		dec := float64(time.Since(t0)) / float64(rounds*len(samples))
		t0 = time.Now()
		for r := 0; r < rounds; r++ {
			for _, m := range msgs {
				f := message.Encode(m)
				f.Release()
			}
		}
		enc := float64(time.Since(t0)) / float64(rounds*len(msgs))
		decTotal += dec * framesOf[kind]
		decWeight += framesOf[kind]
		encTotal += enc * messagesOf[kind]
		encWeight += messagesOf[kind]
	}
	return per(encTotal, encWeight), per(decTotal, decWeight)
}

// signatureCost times the suite standalone on the workload's signature
// shapes: a replica's signature over a protocol record, its
// verification, and batch verification of client requests at the
// workload's batch size.
func signatureCost(c *cluster) (signUS, verifyUS, batchPerSigUS float64) {
	const iters = 200
	record := (&message.Signed{Kind: message.KindCommit, Seq: 1}).SignedBytes()
	signer := crypto.ReplicaPrincipal(0)
	var sig []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sig = c.suite.Sign(signer, record)
	}
	signUS = float64(time.Since(t0)) / iters / 1e3
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if !c.suite.Verify(signer, record, sig) {
			return 0, 0, 0 // cannot happen: the suite just produced sig
		}
	}
	verifyUS = float64(time.Since(t0)) / iters / 1e3

	size := c.cfg.Batching.Normalized().BatchSize
	items := make([]crypto.BatchItem, size)
	for i := range items {
		req := &message.Request{Op: make([]byte, c.wl.valueSize+16), Timestamp: uint64(i + 1), Client: c.sessions[i%len(c.sessions)].cl.ID()}
		who := crypto.ClientPrincipal(int64(req.Client))
		items[i] = crypto.BatchItem{Signer: who, Msg: req.SignedBytes(), Sig: c.suite.Sign(who, req.SignedBytes())}
	}
	t0 = time.Now()
	for i := 0; i < iters; i += size {
		if ok, _ := crypto.BatchVerify(c.suite, items); !ok {
			return 0, 0, 0 // cannot happen: every item was signed above
		}
	}
	batches := (iters + size - 1) / size
	batchPerSigUS = float64(time.Since(t0)) / float64(batches*size) / 1e3
	return signUS, verifyUS, batchPerSigUS
}

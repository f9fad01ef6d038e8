package main

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"painter/internal/netsim/emul"
	"painter/internal/tm"
	"painter/internal/tmproto"
)

// The failover workload: one TM-Edge with two TM-PoPs, each behind an
// emul link with a fixed delay; the backup is slightly slower. A light
// data stream is paced at a fixed rate. On a fixed cycle the primary's
// link is cut and later restored. Each operation is one cut followed by
// the restoration of traffic: its latency runs from the cut to the
// first echo of a packet sent after the cut, which can only come back
// through the backup.
const (
	failoverPeriod = 250 * time.Millisecond
	// failoverTimeout bounds cut → first echo; it ends before the
	// restore, so an echo through the restored primary cannot count.
	failoverTimeout   = 100 * time.Millisecond
	failoverRestoreAt = 125 * time.Millisecond
	failoverOneWay    = 10 * time.Millisecond
	failoverBackupAdd = 2 * time.Millisecond
	failoverPace      = 2 * time.Millisecond
	// failoverFlows are the flows of one cycle. Each cycle starts new
	// flows after the primary is reselected, since flows pinned to the
	// backup stay there while it lives.
	failoverFlows           = 8
	failoverCyclesPerSecond = 4
	failoverTailPct         = 75
	failoverSetups          = 3
)

type failoverRig struct {
	popA, popB   *tm.PoP
	linkA, linkB *emul.Link
	edge         *tm.Edge
	// events and echoes are buffered so that the prober and the edge's
	// readers never wait while the cycle loop is between reads; a
	// cycle produces a few events and about a hundred echoes.
	events chan tm.Event
	echoes chan echo
	done   chan struct{} // closed first on close, unblocking callbacks
}

func (r *failoverRig) close() {
	close(r.done)
	if r.edge != nil {
		r.edge.Close()
	}
	for _, l := range []*emul.Link{r.linkA, r.linkB} {
		if l != nil {
			l.Close()
		}
	}
	for _, pop := range []*tm.PoP{r.popA, r.popB} {
		if pop != nil {
			pop.Close()
		}
	}
}

func newFailoverRig(p params) (*failoverRig, error) {
	r := &failoverRig{events: make(chan tm.Event, 64), echoes: make(chan echo, 256), done: make(chan struct{})}
	var err error
	dest := func(pop *tm.PoP, id uint32, delay time.Duration, link **emul.Link) (tmproto.Destination, error) {
		l, err := emul.NewLink(pop.Addr(), delay, p.seed+int64(id))
		if err != nil {
			return tmproto.Destination{}, err
		}
		*link = l
		ap, err := netip.ParseAddrPort(l.Addr())
		return tmproto.Destination{Addr: ap.Addr(), Port: ap.Port(), PoP: id}, err
	}
	if r.popA, err = tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, FlowTTL: time.Hour}); err != nil {
		return nil, err
	}
	if r.popB, err = tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 2, FlowTTL: time.Hour}); err != nil {
		r.close()
		return nil, err
	}
	dA, err := dest(r.popA, 1, failoverOneWay, &r.linkA)
	if err != nil {
		r.close()
		return nil, err
	}
	dB, err := dest(r.popB, 2, failoverOneWay+failoverBackupAdd, &r.linkB)
	if err != nil {
		r.close()
		return nil, err
	}
	cfg := tm.DefaultEdgeConfig()
	cfg.Destinations = []tmproto.Destination{dA, dB}
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.MaxBackoff = 20 * time.Millisecond
	cfg.JitterSeed = p.seed
	cfg.OnEvent = func(ev tm.Event) {
		select {
		case r.events <- ev:
		case <-r.done:
		}
	}
	cfg.OnReturn = func(f tmproto.FlowKey, b []byte) {
		select {
		case r.echoes <- echo{f, b, p.clk.now()}:
		case <-r.done:
		}
	}
	if p.spans != nil {
		cfg.Tracer = p.spans.tr
	}
	if r.edge, err = tm.NewEdge(cfg); err != nil {
		r.close()
		return nil, err
	}
	// Ready when the primary is selected and both PoPs answer probes.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sel, ok := r.edge.Selected()
		alive := 0
		for _, d := range r.edge.Status() {
			if d.Alive && d.RTT > 0 {
				alive++
			}
		}
		if ok && sel.PoP == 1 && alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("edge never settled on the primary PoP")
		}
	}
	for len(r.events) > 0 {
		<-r.events
	}
	return r, nil
}

// pacer sends the data stream: one packet every failoverPace on the
// current cycle's flows, from its own goroutine.
type pacer struct {
	edge   *tm.Edge
	clk    clock
	seed   int64
	epoch  atomic.Int64 // cycle whose flows new packets use
	next   atomic.Int64 // sequence number of the next packet
	errs   atomic.Int64
	sentAt []atomic.Int64 // send time by sequence number
	stop   chan struct{}
	done   chan struct{}
}

func (pc *pacer) flow(epoch int64, i int) tmproto.FlowKey {
	return tmproto.FlowKey{
		Proto:   17,
		Src:     netip.AddrFrom4([4]byte{10, 200, byte(epoch >> 8), byte(epoch)}),
		Dst:     netip.AddrFrom4([4]byte{203, 0, 113, byte(pc.seed)}),
		SrcPort: uint16(2000 + i),
		DstPort: 443,
	}
}

func (pc *pacer) run() {
	defer close(pc.done)
	tick := time.NewTicker(failoverPace)
	defer tick.Stop()
	buf := make([]byte, payloadLen)
	for {
		select {
		case <-pc.stop:
			return
		case <-tick.C:
		}
		seq := pc.next.Load()
		if int(seq) >= len(pc.sentAt) {
			return
		}
		i := int(seq % failoverFlows)
		pc.sentAt[seq].Store(pc.clk.now())
		epoch := pc.epoch.Load()
		if err := pc.edge.Send(pc.flow(epoch, i), encodePayload(buf, uint64(seq), int(epoch), i)); err != nil {
			pc.errs.Add(1)
		}
		pc.next.Store(seq + 1)
	}
}

// cycle is what one cut recorded, as clock ns (0 = not yet seen).
type cycle struct {
	cut, dead, selected, echo int64
	cutSeq                    int64
}

func runFailover(p params) (*outcome, error) {
	o := newOutcome(failoverTailPct)
	var rig *failoverRig
	for i := 0; i < failoverSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newFailoverRig(p); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer rig.close()

	cycles := max(failoverCyclesPerSecond*p.seconds, minSamplesForTail(failoverTailPct))
	span := time.Duration(cycles)*failoverPeriod + time.Second
	pc := &pacer{edge: rig.edge, clk: p.clk, seed: p.seed,
		sentAt: make([]atomic.Int64, 2*int(span/failoverPace)),
		stop:   make(chan struct{}), done: make(chan struct{})}
	delivered := make([]bool, len(pc.sentAt))
	var (
		cur                           *cycle
		deliveredN                    int
		detectMs, reselectMs, repinMs []float64
		repinned                      uint64
		primaryBack                   bool
	)
	// pump handles echoes and edge events until the deadline or until
	// stop reports true.
	pump := func(deadline time.Time, stop func() bool) {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		for !stop() {
			select {
			case e := <-rig.echoes:
				seq, epoch, f, ok := decodePayload(e.payload)
				if !ok || int(seq) >= len(delivered) || pc.sentAt[seq].Load() == 0 {
					o.problem("echo that matches no packet sent")
					continue
				}
				if e.flow != pc.flow(int64(epoch), f) {
					o.problem("echo of packet %d carries the wrong flow", seq)
					continue
				}
				if !delivered[seq] {
					delivered[seq] = true
					deliveredN++
				}
				if cur != nil && cur.echo == 0 && int64(seq) >= cur.cutSeq {
					cur.echo = e.at
				}
			case ev := <-rig.events:
				switch {
				case cur != nil && ev.Kind == tm.EventDestDead && ev.Dest.PoP == 1 && cur.dead == 0:
					cur.dead = max(p.clk.at(ev.At), cur.cut)
				case cur != nil && ev.Kind == tm.EventSelected && ev.Dest.PoP == 2 && cur.dead != 0 && cur.selected == 0:
					cur.selected = max(p.clk.at(ev.At), cur.dead)
				case ev.Kind == tm.EventSelected && ev.Dest.PoP == 1:
					primaryBack = true
				}
			case <-timer.C:
				return
			}
		}
	}
	never := func() bool { return false }

	if p.spans != nil {
		o.table = newLayerTable()
	}
	go pc.run()
	stopPacer := sync.OnceFunc(func() { close(pc.stop); <-pc.done })
	defer stopPacer()
	es0, pa0, pb0 := rig.edge.Stats(), rig.popA.Stats(), rig.popB.Stats()
	m := startMeter()
	start := time.Now()
	for c := 0; c < cycles; c++ {
		at := start.Add(time.Duration(c) * failoverPeriod)
		pump(at, never)
		if c > 0 && !primaryBack {
			// The primary must be back before it can be cut again.
			pump(at.Add(failoverPeriod), func() bool { return primaryBack })
			if !primaryBack {
				return nil, fmt.Errorf("cycle %d: primary PoP not reselected after restore", c)
			}
		}
		pc.epoch.Store(int64(c))
		// Let the new cycle's flows pin to the primary before the cut.
		pump(time.Now().Add(2*failoverPace*failoverFlows), never)

		o.attempted++
		// The packet being sent at the moment of the cut may still pass;
		// count from the one after it.
		cur = &cycle{cutSeq: pc.next.Load() + 1}
		ec0, pbIn0 := rig.edge.Stats(), rig.popB.Stats().DataIn
		cur.cut = p.clk.now()
		rig.linkA.SetDown(true)
		primaryBack = false
		cutAt := time.Now()
		pump(cutAt.Add(failoverTimeout), func() bool { return cur.echo != 0 && cur.selected != 0 })

		m.pause()
		ok := cur.echo != 0 && cur.selected != 0
		if ok && rig.popB.Stats().DataIn == pbIn0 {
			ok = false
			o.problem("cycle %d: traffic restored without reaching the backup PoP", c)
		}
		if ok {
			o.ops++
			o.latMs = append(o.latMs, float64(cur.echo-cur.cut)/1e6)
			detectMs = append(detectMs, float64(cur.dead-cur.cut)/1e6)
			reselectMs = append(reselectMs, float64(cur.selected-cur.dead)/1e6)
			repinMs = append(repinMs, float64(max(cur.echo, cur.selected)-cur.selected)/1e6)
			ec := rig.edge.Stats()
			repinned += ec.RepinnedFlows - ec0.RepinnedFlows
			if p.spans != nil {
				recs, err := p.spans.take()
				if err != nil {
					o.problem("%v", err)
				}
				t := newOpTree(cur.cut)
				t.nodes[0].end = max(cur.echo, cur.selected)
				t.add("wait.detect", 0, cur.cut, cur.dead)
				t.add("wait.reselect", 0, cur.dead, cur.selected)
				t.add("wait.repin", 0, cur.selected, t.nodes[0].end)
				o.table.left += t.adopt(recs)
				o.table.add(t)
			}
		} else {
			o.failed++
			o.problem("cycle %d: traffic not restored through the backup within %v", c, failoverTimeout)
		}
		m.resume()
		cur = nil
		pump(cutAt.Add(failoverRestoreAt), never)
		rig.linkA.SetDown(false)
	}
	pump(start.Add(time.Duration(cycles)*failoverPeriod), never)
	stopPacer()
	m.stop()
	o.phase = m
	// Echoes of the last packets are still on the wire.
	pump(time.Now().Add(4*(failoverOneWay+failoverBackupAdd)), never)

	es, pa, pb := rig.edge.Stats(), rig.popA.Stats(), rig.popB.Stats()
	moves := (pa.FlowMoves - pa0.FlowMoves) + (pb.FlowMoves - pb0.FlowMoves)
	sent := pc.next.Load()
	if n := pc.errs.Load(); n > 0 {
		o.problem("%d data packets failed to send", n)
	}
	o.quality = float64(deliveredN) / float64(max(sent, 1))
	o.counts = []workCount{{"cycles", int64(o.ops)}}
	o.layers["tm.detect_ms"] = median(detectMs)
	o.layers["tm.reselect_ms"] = median(reselectMs)
	o.layers["tm.repin_ms"] = median(repinMs)
	o.layers["tm.probes_per_s"] = float64(es.ProbesSent-es0.ProbesSent) / m.Wall.Seconds()
	o.layers["tm.repinned_flows"] = float64(repinned) / float64(max(o.ops, 1))
	o.layers["tm.pop_flow_moves"] = float64(moves) / float64(max(o.ops, 1))
	o.layers["tm.send_errors"] = float64(es.SendErrors - es0.SendErrors)
	o.close(rig)
	return o, nil
}

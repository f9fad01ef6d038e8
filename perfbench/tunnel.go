package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"painter/internal/tm"
	"painter/internal/tmproto"
)

// The tunnel workload: a closed loop with one sender goroutine and a
// small fixed in-flight window. An in-process TM-Edge tunnels small
// payloads to an in-process TM-PoP running EchoService over loopback;
// each operation is one round trip, matched by the sequence number in
// its payload. Tens of thousands of flows are pinned during set-up, and
// the prober idles, so the run measures per-packet datapath cost.
const (
	// tunnelWindow keeps the loop lossless: wider windows overflow the
	// loopback socket buffers on a 2-CPU box and then measure loss
	// recovery instead of the datapath.
	tunnelWindow = 4
	tunnelFlows  = 20_000
	// tunnelOpsPerSecond sizes the run: a little under the round-trip
	// rate this window sustains on a 2-CPU box.
	tunnelOpsPerSecond = 60_000
	tunnelTailPct      = 90
	tunnelLossTimeout  = 500 * time.Millisecond
	tunnelSetups       = 3
)

// echo is one decapsulated reply, stamped on arrival.
type echo struct {
	flow    tmproto.FlowKey
	payload []byte
	at      int64
}

// tunnelRig is one edge and PoP pair with its pinned flows.
type tunnelRig struct {
	pop  *tm.PoP
	edge *tm.Edge
	// echoes holds replies between the edge's readers and the sender;
	// the window keeps at most tunnelWindow of them outstanding.
	echoes chan echo
	done   chan struct{} // closed first on close, unblocking OnReturn
	flows  []tmproto.FlowKey
	seq    uint64 // next operation's sequence number, across passes
}

func (r *tunnelRig) close() {
	close(r.done)
	if r.edge != nil {
		r.edge.Close()
	}
	if r.pop != nil {
		r.pop.Close()
	}
}

func tunnelFlowKeys(seed int64) []tmproto.FlowKey {
	dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(seed)})
	keys := make([]tmproto.FlowKey, tunnelFlows)
	for i := range keys {
		keys[i] = tmproto.FlowKey{
			Proto:   17,
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     dst,
			SrcPort: uint16(1024 + (int64(i)*7919+seed)%60000),
			DstPort: 443,
		}
	}
	return keys
}

// newTunnelRig starts a PoP and an edge and pins every flow with one
// closed-loop pass.
func newTunnelRig(p params) (*tunnelRig, error) {
	r := &tunnelRig{echoes: make(chan echo, tunnelWindow), done: make(chan struct{}), flows: tunnelFlowKeys(p.seed)}
	var err error
	r.pop, err = tm.NewPoP(tm.PoPConfig{ListenAddr: "127.0.0.1:0", PoPID: 1, Service: tm.EchoService{}, FlowTTL: time.Hour})
	if err != nil {
		return nil, err
	}
	ap, err := netip.ParseAddrPort(r.pop.Addr())
	if err != nil {
		r.close()
		return nil, err
	}
	cfg := tm.DefaultEdgeConfig()
	cfg.Destinations = []tmproto.Destination{{Addr: ap.Addr(), Port: ap.Port(), PoP: 1}}
	// Idle prober: a probe every 100ms, and a silence threshold far
	// above any queueing delay the closed loop can build up.
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.MinFailureTimeout = 2 * time.Second
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
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := r.edge.Selected(); ok {
			break
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("edge never selected its PoP")
		}
	}
	if st := r.loop(p, tunnelFlows, func(i int) int { return i }, nil); st.echoed != tunnelFlows {
		r.close()
		return nil, fmt.Errorf("pinning: %d of %d flows echoed (%d lost, %d corrupt or mismatched, %d send errors)",
			st.echoed, tunnelFlows, st.lost, st.corrupt+st.mismatched, st.sendErrs)
	}
	return r, nil
}

// loopStats counts one closed-loop pass. Every sent operation ends
// echoed, lost, mismatched or as a send error; a corrupt echo names no
// operation, so the one it belonged to is eventually written off lost.
type loopStats struct {
	sent, echoed, lost, mismatched, sendErrs int
	corrupt                                  int
}

// loop runs n round trips with at most tunnelWindow in flight. flowOf
// picks operation i's flow. sample, when set, receives each intact
// round trip's send-call, return-path and total times in ns.
func (r *tunnelRig) loop(p params, n int, flowOf func(int) int, sample func(send, ret, rtt int64)) loopStats {
	var st loopStats
	win := newWindow(tunnelWindow)
	buf := make([]byte, payloadLen)
	tick := time.NewTicker(tunnelLossTimeout / 5)
	defer tick.Stop()
	for st.echoed+st.lost+st.mismatched+st.sendErrs < n {
		for st.sent < n && win.inFlight() < tunnelWindow {
			f := flowOf(st.sent)
			t0 := p.clk.now()
			si, _ := win.acquire(r.seq, f, t0)
			err := r.edge.Send(r.flows[f], encodePayload(buf, r.seq, si, f))
			win.slots[si].sendDone = p.clk.now()
			if err != nil {
				win.complete(si, r.seq)
				st.sendErrs++
			}
			r.seq++
			st.sent++
		}
		select {
		case e := <-r.echoes:
			eseq, si, f, ok := decodePayload(e.payload)
			if !ok || f >= len(r.flows) || r.flows[f] != e.flow {
				st.corrupt++
				continue
			}
			s, ok := win.complete(si, eseq)
			if !ok {
				continue // a reply to an operation already written off
			}
			if s.flow != f {
				st.mismatched++
				continue
			}
			st.echoed++
			if sample != nil {
				sample(s.sendDone-s.sentAt, e.at-s.sendDone, e.at-s.sentAt)
			}
		case <-tick.C:
			st.lost += win.expire(p.clk.now() - int64(tunnelLossTimeout))
		}
	}
	return st
}

func runTunnel(p params) (*outcome, error) {
	o := newOutcome(tunnelTailPct)
	var rig *tunnelRig
	for i := 0; i < tunnelSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newTunnelRig(p); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer rig.close()

	n := tunnelOpsPerSecond * p.seconds
	stride, offset := 7919, int(uint64(p.seed)%tunnelFlows)
	flowOf := func(i int) int { return (offset + i*stride) % tunnelFlows }
	o.latMs = make([]float64, 0, n)
	sendUs := make([]float64, 0, n)
	retUs := make([]float64, 0, n)
	es0, ps0 := rig.edge.Stats(), rig.pop.Stats()

	m := startMeter()
	st := rig.loop(p, n, flowOf, func(send, ret, rtt int64) {
		o.latMs = append(o.latMs, float64(rtt)/1e6)
		sendUs = append(sendUs, float64(send)/1e3)
		retUs = append(retUs, float64(ret)/1e3)
	})
	m.stop()
	o.phase = m
	es, ps := rig.edge.Stats(), rig.pop.Stats()

	o.attempted = n
	o.ops = st.echoed
	o.failed = n - st.echoed
	if st.lost+st.corrupt+st.mismatched+st.sendErrs > 0 {
		o.problem("%d lost, %d corrupt and %d mismatched echoes, %d send errors in %d round trips",
			st.lost, st.corrupt, st.mismatched, st.sendErrs, n)
	}
	o.quality = float64(st.echoed) / float64(n)
	o.counts = []workCount{{"sent", int64(st.sent)}, {"echoed", int64(st.echoed)}}
	o.layers["tm.edge_send_us"] = median(sendUs)
	o.layers["tm.return_path_us"] = median(retUs)
	o.layers["tm.pop_overload_waits"] = float64(ps.OverloadWaits - ps0.OverloadWaits)
	o.layers["tm.send_errors"] = float64(es.SendErrors - es0.SendErrors)
	o.layers["tm.process_cpu_share"] = m.CPU.Seconds() / (m.Wall.Seconds() * float64(runtime.NumCPU()))
	o.layers["tm.probes_per_s"] = float64(es.ProbesSent-es0.ProbesSent) / m.Wall.Seconds()
	if p.spans != nil {
		// Round trips are flat: the send call and the return path
		// partition each one, and the program's only spans are the
		// prober's, which no operation causes.
		o.table = newLayerTable()
		o.table.ops = st.echoed
		o.table.wallNs = mean(o.latMs) * 1e6 * float64(st.echoed)
		o.table.selfNs["call.Edge.Send"] = mean(sendUs) * 1e3 * float64(st.echoed)
		o.table.selfNs["return_path"] = mean(retUs) * 1e3 * float64(st.echoed)
		o.table.selfNs[opRoot] = o.table.wallNs - o.table.selfNs["call.Edge.Send"] - o.table.selfNs["return_path"]
		for _, name := range []string{opRoot, "call.Edge.Send", "return_path"} {
			o.table.spans[name] = st.echoed
		}
		recs, err := p.spans.take()
		if err != nil {
			o.problem("%v", err)
		}
		o.table.left = len(recs)
	}
	o.close(rig)
	return o, nil
}

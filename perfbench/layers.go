package main

import (
	"fmt"
	"runtime"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/device"
	"mplsvpn/internal/ldp"
	"mplsvpn/internal/mpls"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/snapshot"
	"mplsvpn/internal/topo"
	"mplsvpn/internal/vpn"
)

// Replays call one layer's public function on a workload's built state,
// outside any simulation, and time it from here. Each replay is sized to a
// fixed number of calls so its cost per call is a median over repeats.

// timeCalls runs fn reps times per round over rounds rounds and returns
// the median ns per call.
func timeCalls(rounds, reps int, fn func()) float64 {
	xs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t))/float64(reps))
	}
	return median(xs)
}

type noop struct{}

func (noop) Run() {}

// replaySimHeap is sim.heap_ns: one Engine.Post plus one Step with a no-op
// action, on an engine holding depth pending events.
func replaySimHeap(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	e := sim.NewEngine(1)
	rng := sim.NewRand(7)
	var act noop
	for i := 0; i < depth; i++ {
		e.Post(sim.Time(rng.Intn(int(sim.Millisecond))), act)
	}
	return timeCalls(15, 20000, func() {
		e.Post(e.Now()+sim.Time(rng.Intn(int(sim.Millisecond))), act)
		e.Step()
	})
}

// replaySteps is sim.step_ns: a serial build of the workload driven one
// Engine.Step at a time over its first limit of simulated time, each step
// timed. It also returns the mean Pending() depth, sampled every 1,000
// steps.
func replaySteps(lay *layout, sp spec, limit sim.Time) ([]float64, float64, error) {
	s, err := build(lay, sp, 0, nil)
	if err != nil {
		return nil, 0, err
	}
	xs := make([]float64, 0, 1<<19)
	var pending []float64
	e := s.b.E
	for e.Now() < limit && len(xs) < cap(xs) {
		if len(xs)%1000 == 0 {
			pending = append(pending, float64(e.Pending()))
		}
		t := time.Now()
		if !e.Step() {
			break
		}
		xs = append(xs, float64(time.Since(t)))
	}
	return xs, mean(pending), nil
}

// hop is one router visit on a flow's path, captured as the packet looked
// when it arrived.
type hop struct {
	r    *device.Router
	kind string // ce, pe_in, p, pe_out
	in   topo.LinkID
	pkt  packet.Packet
}

// walk follows each flow's path the way netsim forwards it, recording every
// hop's arriving packet. It mirrors core's TraceRoute, which returns only
// the label stacks.
func walk(s *scenario) ([][]hop, error) {
	var paths [][]hop
	for _, f := range s.flows {
		p := *f.Packet(200)
		at, in := f.At, topo.LinkID(-1)
		var path []hop
		for n := 0; ; n++ {
			if n > 64 {
				return nil, fmt.Errorf("flow %s: hop limit", f.Name)
			}
			r := s.b.Net.Router(at)
			kind := "ce"
			switch {
			case r.Kind == device.P:
				kind = "p"
			case r.Kind == device.PE && p.MPLS.Depth() > 0:
				kind = "pe_out"
			case r.Kind == device.PE:
				kind = "pe_in"
			}
			path = append(path, hop{r: r, kind: kind, in: in, pkt: p})
			v := r.Receive(s.b.E.Now(), &p, in)
			if v.Dropped() {
				return nil, fmt.Errorf("flow %s dropped at %s: %v", f.Name, r.Name, v.Drop)
			}
			if v.Deliver {
				break
			}
			l := s.b.G.Link(v.OutLink)
			at, in = l.To, v.OutLink
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// perHop holds the per-hop replays and the per-packet hop mix.
type perHop struct {
	receiveNs  map[string]float64 // kind -> ns per Router.Receive
	hopsPerPkt map[string]float64 // kind -> visits per packet
	ilmNs      float64
	vrfNs      float64
	probeNs    float64 // per hop, one probe at a time on the idle network
}

func (h *perHop) hops() float64 {
	t := 0.0
	for _, v := range h.hopsPerPkt {
		t += v
	}
	return t
}

var hopKinds = []string{"ce", "pe_in", "p", "pe_out"}

func replayPerHop(s *scenario, tr *tracer) (*perHop, error) {
	paths, err := walk(s)
	if err != nil {
		return nil, err
	}
	h := &perHop{receiveNs: map[string]float64{}, hopsPerPkt: map[string]float64{}}
	byKind := map[string][]hop{}
	var sent float64
	for i, path := range paths {
		w := float64(max(s.flows[i].Stats.Sent, 1)) // flows of an unrun build weigh alike
		sent += w
		for _, hp := range path {
			h.hopsPerPkt[hp.kind] += w
			byKind[hp.kind] = append(byKind[hp.kind], hp)
		}
	}
	for k := range h.hopsPerPkt {
		if sent > 0 {
			h.hopsPerPkt[k] /= sent
		}
	}
	now := s.b.E.Now()
	for _, kind := range hopKinds {
		hs := byKind[kind]
		if len(hs) == 0 {
			continue
		}
		var p packet.Packet
		i := 0
		sp := tr.begin("replay.device.receive." + kind)
		h.receiveNs[kind] = timeCalls(15, 20000, func() {
			hp := &hs[i%len(hs)]
			i++
			p = hp.pkt
			hp.r.Receive(now, &p, hp.in)
		})
		tr.end(sp, map[string]int64{"calls": 15 * 20000})
	}

	// ILM and VRF lookups on the labels and destinations the paths carry.
	type ilmKey struct {
		f *mpls.LFIB
		l packet.Label
	}
	type vrfKey struct {
		v   *vpn.VRF
		dst addr.IPv4
	}
	var ilms []ilmKey
	var vrfs []vrfKey
	for _, path := range paths {
		for _, hp := range path {
			if hp.pkt.MPLS.Depth() > 0 {
				ilms = append(ilms, ilmKey{hp.r.LFIB, hp.pkt.MPLS.Top().Label})
			}
			if hp.kind == "pe_in" {
				if v, ok := hp.r.AccessVRF(hp.in); ok {
					vrfs = append(vrfs, vrfKey{v, hp.pkt.IP.Dst})
				}
			}
		}
	}
	if len(ilms) == 0 || len(vrfs) == 0 {
		return nil, fmt.Errorf("paths carry no labels or VRF lookups")
	}
	i := 0
	tr.do("replay.mpls.ilm", func() {
		h.ilmNs = timeCalls(15, 50000, func() {
			k := ilms[i%len(ilms)]
			i++
			k.f.LookupILM(k.l)
		})
	})
	i = 0
	tr.do("replay.vpn.vrf_lookup", func() {
		h.vrfNs = timeCalls(15, 50000, func() {
			k := vrfs[i%len(vrfs)]
			i++
			k.v.Lookup(k.dst)
		})
	})

	// One probe at a time through the idle network.
	var nh float64
	for _, path := range paths {
		nh += float64(len(path))
	}
	nh /= float64(len(paths))
	sp := tr.begin("replay.netsim.probe")
	xs := make([]float64, 0, 15)
	for r := 0; r < 15; r++ {
		t := time.Now()
		for k := 0; k < 200; k++ {
			f := s.flows[(r*200+k)%len(s.flows)]
			s.b.Net.Inject(f.At, f.Packet(200))
			s.b.Net.RunUntil(s.b.E.Now() + 50*sim.Millisecond)
		}
		xs = append(xs, float64(time.Since(t))/200/nh)
	}
	tr.end(sp, map[string]int64{"probes": 15 * 200})
	h.probeNs = median(xs)
	return h, nil
}

// replayQoS times one hybrid-scheduler Enqueue plus one Dequeue with the
// scheduler holding depth packets and the arrivals following mix.
func replayQoS(limitBytes int, weights [qos.NumClasses]float64, mix []qos.Class, depth int) float64 {
	sched := qos.NewHybrid(limitBytes, weights)
	set := func(p *packet.Packet, c qos.Class) {
		p.IP.DSCP = qos.DSCPForClass(c)
		p.Payload = 200
		if c == qos.ClassBestEffort {
			p.Payload = 1400
		}
	}
	pkts := make([]packet.Packet, depth+1)
	for i := 0; i < depth; i++ {
		set(&pkts[i], mix[i%len(mix)])
		sched.Enqueue(0, mix[i%len(mix)], &pkts[i])
	}
	spare, i := &pkts[depth], depth
	return timeCalls(15, 50000, func() {
		c := mix[i%len(mix)]
		i++
		set(spare, c)
		if !sched.Enqueue(0, c, spare) {
			return
		}
		spare = sched.Dequeue(0)
	})
}

// reconvergence is the ospf/ldp/rsvp replay on a throwaway build.
type reconvergence struct {
	ospfConvergeMs, ospfNotifyMs, ldpConvergeMs, rsvpSetupMs, faultMs float64
	lspsPerFault                                                      float64
}

func replayReconvergence(lay *layout, sp spec, shards int, tr *tracer) (*reconvergence, error) {
	s, err := build(lay, sp, shards, nil)
	if err != nil {
		return nil, err
	}
	b, rc := s.b, &reconvergence{}
	const rounds = 9
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var xs []float64
	tr.do("replay.ospf.converge", func() {
		for r := 0; r < rounds; r++ {
			t := time.Now()
			b.IGP.Converge()
			xs = append(xs, ms(time.Since(t)))
		}
	})
	rc.ospfConvergeMs = median(xs)

	xs = xs[:0]
	tr.do("replay.ospf.notify", func() {
		for r := 0; r < rounds; r++ {
			f := lay.faults[r%len(lay.faults)]
			na, _ := b.G.NodeByName(pName(f[0]))
			nz, _ := b.G.NodeByName(pName(f[1]))
			for _, down := range []bool{true, false} {
				b.G.SetLinkDown(na, nz, down)
				t := time.Now()
				b.IGP.NotifyLinkChange(na, nz)
				xs = append(xs, ms(time.Since(t)))
			}
		}
	})
	rc.ospfNotifyMs = median(xs)

	var provider []topo.NodeID
	for i := 0; i < b.G.NumNodes(); i++ {
		if r := b.Net.Router(topo.NodeID(i)); r != nil && (r.Kind == device.P || r.Kind == device.PE) {
			provider = append(provider, topo.NodeID(i))
		}
	}
	xs = xs[:0]
	tr.do("replay.ldp.converge", func() {
		for r := 0; r < rounds; r++ {
			t := time.Now()
			p := ldp.NewOver(b.G, b.IGP, provider)
			for _, n := range provider {
				p.UseTables(n, mpls.NewAllocator(), mpls.NewLFIB(), mpls.NewFTN())
			}
			p.Converge()
			xs = append(xs, ms(time.Since(t)))
		}
	})
	rc.ldpConvergeMs = median(xs)

	xs = xs[:0]
	var setupErr error
	tr.do("replay.rsvp.setup", func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < b.G.NumLinks(); i++ {
				b.G.Link(topo.LinkID(i)).ReservedBw = 0
			}
			t := time.Now()
			p := rsvp.New(b.G, nil, nil)
			for i, te := range lay.te {
				in, _ := b.G.NodeByName(peName(te[0]))
				eg, _ := b.G.NodeByName(peName(te[1]))
				if _, err := p.Setup(fmt.Sprintf("te%d", i), in, eg, 5e6, rsvp.SetupOptions{}); err != nil {
					setupErr = err
				}
			}
			xs = append(xs, ms(time.Since(t)))
		}
	})
	if setupErr != nil {
		return nil, fmt.Errorf("rsvp replay: %w", setupErr)
	}
	rc.rsvpSetupMs = median(xs)

	// Whole faults through core, on a fresh build (the replays above left
	// this one's tables inconsistent).
	if s, err = build(lay, sp, shards, nil); err != nil {
		return nil, err
	}
	xs = xs[:0]
	var faultErr error
	tr.do("replay.core.fault", func() {
		for r := 0; r < rounds; r++ {
			f := lay.faults[r%len(lay.faults)]
			a, z := pName(f[0]), pName(f[1])
			t := time.Now()
			if err := s.b.FailLink(a, z, 0); err != nil {
				faultErr = err
			}
			xs = append(xs, ms(time.Since(t)))
			t = time.Now()
			if err := s.b.RestoreLink(a, z, 0); err != nil {
				faultErr = err
			}
			xs = append(xs, ms(time.Since(t)))
		}
	})
	if faultErr != nil {
		return nil, fmt.Errorf("fault replay: %w", faultErr)
	}
	rc.faultMs = median(xs)
	rc.lspsPerFault = float64(len(s.b.RSVP.LSPs()))
	return rc, nil
}

// snapshotReplay is the checkpoint codec on a built state.
type snapshotReplay struct {
	bytes                  int
	checkpointMs, decodeMs float64
	restoreMs, rebuildMs   float64
}

func replaySnapshot(s *scenario, shards int, tr *tracer) (*snapshotReplay, error) {
	sr := &snapshotReplay{}
	var data []byte
	var err error
	var xs []float64
	tr.do("replay.snapshot.encode", func() {
		for r := 0; r < 7; r++ {
			t := time.Now()
			data, err = s.b.Snapshot(s.scenarioID())
			xs = append(xs, float64(time.Since(t))/1e6)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sr.bytes, sr.checkpointMs = len(data), median(xs)
	xs = xs[:0]
	tr.do("replay.snapshot.decode", func() {
		for r := 0; r < 7; r++ {
			t := time.Now()
			_, err = snapshot.Decode(data)
			xs = append(xs, float64(time.Since(t))/1e6)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sr.decodeMs = median(xs)
	var rs, rb []float64
	tr.do("replay.core.restore", func() {
		for r := 0; r < 5; r++ {
			t := time.Now()
			var ns *scenario
			if ns, err = build(s.lay, s.sp, shards, nil); err != nil {
				return
			}
			rb = append(rb, float64(time.Since(t))/1e6)
			if err = ns.b.Restore(data, ns.scenarioID()); err != nil {
				return
			}
			rs = append(rs, float64(time.Since(t))/1e6)
		}
	})
	if err != nil {
		return nil, err
	}
	sr.restoreMs, sr.rebuildMs = median(rs), median(rb)
	return sr, nil
}

// liveHeap forces a collection and returns the bytes held by live objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

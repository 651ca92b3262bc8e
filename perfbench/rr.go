package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"time"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/bgp"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// E20's short shape: 1,000 PEs in 10 reflector clusters of 100, two
// reflectors each, 100 VPNs and 100 VPN-IPv4 routes per PE.
const (
	rrPEs         = 1000
	rrVPNs        = 100
	rrRoutesPerPE = 100
	rrClusterSize = 100
)

// rrLayout is what the seed decides for rr-100k. As in E20, ten
// consecutive PEs form a region whose VPN nine of them serve; the tenth is a
// remote site of another region's VPN. Here every VPN gets exactly one
// remote site, in a cluster a seeded distance away, at a seeded position,
// so each seed reflects the same number of routes across clusters. The
// seed also moves the prefixes and orders the PE session flaps.
type rrLayout struct {
	seed  uint64
	vpnOf []int
	flaps []int
}

func newRRLayout(seed uint64) *rrLayout {
	rng := sim.NewRand(seed*0xbf58476d1ce4e5b9 + 3)
	l := &rrLayout{seed: seed, vpnOf: make([]int, rrPEs)}
	const regions, perCluster = rrPEs / 10, rrClusterSize / 10
	for p := range l.vpnOf {
		l.vpnOf[p] = (p / 10) % rrVPNs
	}
	shift := 1 + rng.Intn(rrPEs/rrClusterSize-1)
	for c := 0; c < regions/perCluster; c++ {
		pos := rng.Perm(perCluster)
		for i := 0; i < perCluster; i++ {
			v := c*perCluster + i // home region and VPN
			region := ((c+shift)%(regions/perCluster))*perCluster + pos[i]
			l.vpnOf[region*10+9] = v % rrVPNs
		}
	}
	l.flaps = rng.Perm(rrPEs)
	return l
}

func rrRT(vpn int) addr.RouteTarget { return addr.RouteTarget{Admin: 65000, Assigned: uint32(vpn)} }

func rrLoopback(p int) addr.IPv4 { return addr.IPv4(0xac000000 + uint32(p)) }

// rrRoute is the r-th route PE p originates. The seed moves the prefixes,
// so two seeds never share a RIB.
func (l *rrLayout) rrRoute(p, r int) *bgp.VPNRoute {
	rt := rrRT(l.vpnOf[p])
	return &bgp.VPNRoute{
		Prefix: addr.VPNPrefix{
			RD:     addr.RouteDistinguisher{Admin: 65000, Assigned: rt.Assigned},
			Prefix: addr.NewPrefix(addr.IPv4(uint32(l.seed%200+10)<<24|uint32(p)<<8|uint32(r)), 32),
		},
		NextHop:  rrLoopback(p),
		Label:    packet.Label(16 + p),
		RTs:      []addr.RouteTarget{rt},
		OriginPE: topo.NodeID(p),
	}
}

// buildMesh is rr-100k's set-up: speakers, origination, import filters,
// cluster configuration and RT interest.
func (l *rrLayout) buildMesh() *bgp.Mesh {
	m := bgp.NewMesh()
	for p := 0; p < rrPEs; p++ {
		sp := m.AddSpeaker(topo.NodeID(p), rrLoopback(p))
		rt := rrRT(l.vpnOf[p])
		sp.Filter = func(r *bgp.VPNRoute) bool { return r.HasRT(rt) }
		for r := 0; r < rrRoutesPerPE; r++ {
			sp.Originate(l.rrRoute(p, r))
		}
	}
	var clusters []bgp.Cluster
	for c := 0; c*rrClusterSize < rrPEs; c++ {
		cl := bgp.Cluster{ID: uint32(c + 1)}
		for k := 0; k < 2; k++ {
			n := topo.NodeID(rrPEs + 2*c + k)
			m.AddSpeaker(n, addr.IPv4(0xad000000+uint32(2*c+k)))
			cl.RRs = append(cl.RRs, n)
		}
		for p := c * rrClusterSize; p < (c+1)*rrClusterSize && p < rrPEs; p++ {
			cl.Clients = append(cl.Clients, topo.NodeID(p))
		}
		clusters = append(clusters, cl)
	}
	m.UseClusters(clusters)
	for p := 0; p < rrPEs; p++ {
		m.SetRTInterest(topo.NodeID(p), []addr.RouteTarget{rrRT(l.vpnOf[p])})
	}
	return m
}

// routeHasher digests route lists field by field.
type routeHasher struct {
	h   hash.Hash
	buf []byte
}

func newRouteHasher() *routeHasher { return &routeHasher{h: sha256.New()} }

func (rh *routeHasher) add(routes []*bgp.VPNRoute) {
	b := binary.LittleEndian.AppendUint64(rh.buf[:0], uint64(len(routes)))
	for _, r := range routes {
		b = binary.LittleEndian.AppendUint16(b, r.Prefix.RD.Admin)
		b = binary.LittleEndian.AppendUint32(b, r.Prefix.RD.Assigned)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Prefix.Prefix.Addr))
		b = append(b, r.Prefix.Prefix.Len)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.NextHop))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Label))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.OriginPE))
	}
	rh.h.Write(b)
	rh.buf = b
}

func (rh *routeHasher) sum() string { return fmt.Sprintf("%x", rh.h.Sum(nil)) }

// bestDigest hashes every client's BestRoutes() in node order.
func bestDigest(m *bgp.Mesh) string {
	rh := newRouteHasher()
	for p := 0; p < rrPEs; p++ {
		sp, ok := m.Speaker(topo.NodeID(p))
		if !ok {
			return "missing speaker"
		}
		rh.add(sp.BestRoutes())
	}
	return rh.sum()
}

// oracleDigest is what bestDigest must read after convergence, computed
// from the origination alone: each client's best routes are exactly the
// routes of every PE in its VPN, its own included, in BestRoutes order
// (VPN prefixes are unique, so no tie-break is involved).
func (l *rrLayout) oracleDigest() string {
	members := make([][]int, rrVPNs)
	for p, v := range l.vpnOf {
		members[v] = append(members[v], p)
	}
	perVPN := make([][]*bgp.VPNRoute, rrVPNs)
	for v, ms := range members {
		for _, q := range ms {
			for r := 0; r < rrRoutesPerPE; r++ {
				perVPN[v] = append(perVPN[v], l.rrRoute(q, r))
			}
		}
		sort.Slice(perVPN[v], func(i, j int) bool { return perVPN[v][i].Prefix.Less(perVPN[v][j].Prefix) })
	}
	rh := newRouteHasher()
	for p := 0; p < rrPEs; p++ {
		rh.add(perVPN[l.vpnOf[p]])
	}
	return rh.sum()
}

// rrRounds is how many rounds of PE flaps rr-100k runs, each followed by a
// converge.
const rrRounds = 6

// runRR runs rr-100k: set up the mesh (sampled several times), then a
// converge and rrRounds rounds of PE session flaps, each followed by
// another converge, until the deadline; every converge is checked against
// the oracle.
func runRR(r *run) error {
	lay := newRRLayout(r.seed)
	oracle := lay.oracleDigest()
	selfTest(r, oracle)
	var err error
	if r.host, err = newHostSpeed(); err != nil {
		return err
	}

	// Set-up samples start from a collected heap, so garbage from the
	// previous sample does not slow the next.
	var setups []float64
	var m *bgp.Mesh
	var heap0 uint64
	for i := 0; i < 30; i++ {
		r.host.burst()
		m = nil
		heap0 = liveHeap()
		t := time.Now()
		m = lay.buildMesh()
		setups = append(setups, time.Since(t).Seconds())
	}

	var converge []float64
	var updates []int
	var cpu, wall, peak float64
	var mem0, mem1 runtime.MemStats
	doConverge := func() {
		for i := 0; i < 5; i++ {
			r.host.burst()
		}
		sp := r.tr.begin("bgp.converge")
		u := m.UpdatesSent
		c0, t := cpuNs(), time.Now()
		m.Converge()
		d := time.Since(t)
		cpu += float64(cpuNs() - c0)
		wall += float64(d)
		r.tr.end(sp, map[string]int64{"updates": int64(m.UpdatesSent - u)})
		converge = append(converge, d.Seconds())
		updates = append(updates, m.UpdatesSent-u)
		r.check(bestDigest(m) == oracle, "converge %d: best paths differ from the oracle", len(converge))
		// The converged RIB is the run's high-water mark.
		peak = max(peak, float64(liveHeap()))
	}
	runtime.ReadMemStats(&mem0)
	t0 := time.Now()
	doConverge()
	convCost := time.Since(t0) // the converge with its bursts and checks
	runtime.ReadMemStats(&mem1)
	bytesPerRoute := (peak - float64(heap0)) / float64(rrPEs*rrRoutesPerPE)

	// Flap in rrRounds rounds, each followed by a converge, leaving time for
	// the converges (and, when tracing, the replays) before the deadline.
	var flaps []float64
	var flapUpdates []int
	reserve := convCost*3/2 + 500*time.Millisecond
	if r.trace {
		reserve += 3 * time.Second
	}
	flapUntil := func(end time.Time) {
		for n0 := len(flaps); len(flaps)-n0 < 5 || time.Now().Before(end); {
			i := len(flaps)
			n := topo.NodeID(lay.flaps[i%rrPEs])
			tr := r.tr
			if i%2 == 1 { // a traced run times every other flap without spans
				tr = nil
			}
			sp := tr.begin("bgp.flap")
			w := m.WithdrawalsSent
			c0, t := cpuNs(), time.Now()
			m.SessionDown(n, false)
			m.SessionUp(n)
			d := time.Since(t)
			cpu += float64(cpuNs() - c0)
			wall += float64(d)
			if tr != nil {
				tr.end(sp, map[string]int64{"withdrawals": int64(m.WithdrawalsSent - w)})
			}
			flaps = append(flaps, float64(d)/1e6)
			flapUpdates = append(flapUpdates, m.WithdrawalsSent-w)
			own, _ := m.Speaker(n)
			r.check(len(own.BestRoutes()) == 0 && m.WithdrawalsSent > w,
				"flap of PE %d: its RIB survived or nothing was withdrawn", n)
			r.host.burst()
		}
	}
	last := r.deadline().Add(-reserve)
	for k := rrRounds; k > 0; k-- {
		// This round's share of what is left, net of the converges to come.
		flapUntil(time.Now().Add((time.Until(last) - convCost*time.Duration(k-1)) / time.Duration(k)))
		doConverge()
	}
	for _, u := range updates[1:] {
		r.check(u == updates[0], "converge updates differ: %v", updates)
	}

	// The first round always holds at least five flaps, all made from the
	// first converged state, so their withdrawals are an exact count; later
	// flaps depend on how many fit before the deadline.
	exact := map[string]float64{"bgp.updates": float64(updates[0])}
	flapSum := 0
	for _, u := range flapUpdates[:5] {
		flapSum += u
	}
	exact["bgp.flap_updates[0:5]"] = float64(flapSum)
	r.prov["counters"] = exact
	r.prov["converge_s"] = converge
	checkGolden(r, digest(oracle+fmt.Sprint(sortedCounters(exact))))

	st := summarize("SessionDown plus SessionUp of one PE", flaps, 80)
	r.prov["op"] = st
	r.setHostTimes(median(setups), float64(updates[0])/median(converge), st.P50)
	r.e2e.set("peak_heap_mb", (peak-r.host.heapBytes)/(1<<20), "MiB")
	if !r.trace {
		return nil
	}
	r.layer.set("op_ms.tail", st.Tail, "ms")

	var plain, traced []float64
	for i, f := range flaps {
		if i%2 == 1 {
			plain = append(plain, f)
		} else {
			traced = append(traced, f)
		}
	}
	r.layer.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100, "%")
	r.layer.set("bgp.updates", float64(updates[0]), "count")
	r.layer.set("bgp.flap_updates", float64(flapSum), "count")
	r.layer.set("bgp.converge_s", median(converge), "s")
	r.layer.set("bgp.updates_per_s", float64(updates[0])/median(converge), "1/s")
	r.layer.set("bgp.bytes_per_route", bytesPerRoute, "B")
	r.layer.set("sim.cpu_per_wall", cpu/wall, "ratio")
	r.layer.set("go.allocs_per_pkt", float64(mem1.Mallocs-mem0.Mallocs)/float64(updates[0]), "count")
	r.layer.set("go.bytes_per_pkt", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(updates[0]), "B")
	r.layer.set("go.gc_cycles", float64(mem1.NumGC-mem0.NumGC), "count")
	r.layer.set("go.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")

	var best []func()
	for p := 0; p < rrPEs; p += 10 {
		sp, _ := m.Speaker(topo.NodeID(p))
		for _, rt := range sp.BestRoutes() {
			pfx := rt.Prefix
			best = append(best, func() { sp.Best(pfx) })
		}
	}
	i := 0
	r.tr.do("replay.bgp.best", func() {
		r.layer.set("bgp.best_ns", timeCalls(15, 50000, func() {
			best[i%len(best)]()
			i++
		}), "ns")
	})

	// rr-100k has no data plane. The packet layers are replayed on the
	// dataplane build of the same seed so every traced result carries
	// every layer; a change to bgp alone should leave them where they are.
	m = nil
	dlay := newLayout(r.seed)
	dsp := spec{horizon: sim.Second}
	idle, err := build(dlay, spec{}, 0, nil) // horizon 0: no traffic, so probes run alone
	if err != nil {
		return err
	}
	replayPartition(r, idle)
	_, _, err = replayLayers(r, dlay, dsp, 0, idle, 0, false)
	return err
}

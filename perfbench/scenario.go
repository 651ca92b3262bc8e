package main

import (
	"fmt"
	"strings"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/rsvp"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/trafgen"
)

// The E15 backbone shape shared by the packet workloads: an 8-router core
// ring with four chords, two PEs per P, and 200 sites over 20 VPNs.
const (
	numP    = 8
	numPE   = 16
	numVPN  = 20
	numSite = 200
)

// layout is everything the seed decides about a packet workload's inputs.
// The seed relabels E15's shape by a symmetry of the core (a rotation or
// reflection of the ring, and which of a P's two PEs is which), draws every
// site's address and every source's phase, and with them the engine's
// random stream. Who talks to whom is E15's pattern under that symmetry, so
// every seed carries the same amount of work and figures from different
// seeds fall in one band; the labels, addresses, timings and tie-breaks
// still differ.
type layout struct {
	seed   uint64
	sitePE []int      // site -> PE index
	vpnOf  []int      // site -> VPN index
	prefix []uint32   // site -> /24 network (10.x.y.0)
	peer   []int      // site -> destination site (same VPN)
	phase  []sim.Time // site -> first-packet offset
	faults [][2]int   // core links (P index pairs) in fault order (churn)
	te     [][2]int   // TE LSP (ingress PE, egress PE) pairs (churn)
}

// Canonical churn inputs, relabeled per seed: core links in fault order,
// ring and chords interleaved, and eight TE LSPs that cross the core.
var (
	canonFaults = [][2]int{{0, 1}, {0, 4}, {2, 3}, {1, 5}, {4, 5}, {2, 6}, {6, 7}, {3, 7},
		{1, 2}, {3, 4}, {5, 6}, {7, 0}}
	canonTE = [][2]int{{0, 3}, {1, 6}, {2, 5}, {7, 12}, {8, 11}, {9, 14}, {10, 13}, {15, 4}}
)

func newLayout(seed uint64) *layout {
	rng := sim.NewRand(seed*0x9e3779b97f4a7c15 + 1)
	l := &layout{seed: seed}
	rot, refl := rng.Intn(numP), rng.Intn(2)
	sigma := func(p int) int { // a symmetry of the ring with its chords
		if refl == 1 {
			p = numP - p
		}
		return (p + rot) % numP
	}
	flip := make([]int, numP)
	for i := range flip {
		flip[i] = rng.Intn(2)
	}
	pi := func(pe int) int { // PE pe sits on P pe%numP, as PE pi(pe) sits on P sigma(pe%numP)
		return sigma(pe%numP) + numP*(pe/numP^flip[pe%numP])
	}
	vpnPerm := rng.Perm(numVPN)
	l.sitePE = make([]int, numSite)
	l.vpnOf = make([]int, numSite)
	l.peer = make([]int, numSite)
	for i := 0; i < numSite; i++ {
		l.sitePE[i] = pi(i % numPE)
		l.vpnOf[i] = vpnPerm[i%numVPN]
		// Each site sends to the next site of its VPN, wrapping: every
		// site sources one flow and sinks one.
		l.peer[i] = i + numVPN
		if l.peer[i] >= numSite {
			l.peer[i] = i % numVPN
		}
	}
	nets := rng.Perm(250 * 250)
	l.prefix = make([]uint32, numSite)
	for i := range l.prefix {
		n := uint32(nets[i])
		l.prefix[i] = 0x0a000000 | (n/250+1)<<16 | (n%250+1)<<8
	}
	// Distinct phases within one millisecond: no two sources share a
	// nanosecond, so serial and sharded event orders agree.
	slots := rng.Perm(1000)
	l.phase = make([]sim.Time, numSite)
	for i := range l.phase {
		l.phase[i] = sim.Time(slots[i])*sim.Microsecond + sim.Time(i)
	}
	for _, f := range canonFaults {
		l.faults = append(l.faults, [2]int{sigma(f[0]), sigma(f[1])})
	}
	for _, t := range canonTE {
		l.te = append(l.te, [2]int{pi(t[0]), pi(t[1])})
	}
	return l
}

func pName(i int) string  { return fmt.Sprintf("P%d", i) }
func peName(i int) string { return fmt.Sprintf("PE%d", i) }

// spec sizes a packet workload.
type spec struct {
	churn   bool     // narrowed core, mixed classes, TE, faults
	horizon sim.Time // simulated traffic per batch
}

// scenario is one built backbone with its traffic attached.
type scenario struct {
	lay   *layout
	sp    spec
	b     *core.Backbone
	flows []*trafgen.Flow
}

// phases names the set-up steps; the traced run records a span for each.
var phases = [...]string{"setup.build_provider", "setup.add_sites", "setup.converge_vpns",
	"setup.enable_sharding", "setup.te", "setup.attach_traffic"}

// build provisions the scenario through core's public API. shards > 0
// switches on the sharded engine with that many shards and workers. The
// phase hook, when set, is called at the start of each set-up phase and
// once more with "" at the end.
func build(lay *layout, sp spec, shards int, phase func(string)) (*scenario, error) {
	if phase == nil {
		phase = func(string) {}
	}
	coreBw, peBw := 10e9, 10e9
	if sp.churn {
		coreBw, peBw = 130e6, 1e9 // the core congests: best effort queues and drops
	}
	phase(phases[0])
	b := core.NewBackbone(core.Config{Seed: lay.seed, Scheduler: core.SchedHybrid})
	for i := 0; i < numP; i++ {
		b.AddP(pName(i))
	}
	for i := 0; i < numP; i++ {
		b.Link(pName(i), pName((i+1)%numP), coreBw, 2*sim.Millisecond, 1)
	}
	for i := 0; i < numP/2; i++ { // chords
		b.Link(pName(i), pName(i+numP/2), coreBw, 3*sim.Millisecond, 2)
	}
	for i := 0; i < numPE; i++ {
		b.AddPE(peName(i))
		b.Link(peName(i), pName(i%numP), peBw, sim.Millisecond, 1)
	}
	b.BuildProvider()

	phase(phases[1])
	for v := 0; v < numVPN; v++ {
		b.DefineVPN(fmt.Sprintf("vpn%d", v))
	}
	for i := 0; i < numSite; i++ {
		b.AddSite(core.SiteSpec{
			VPN:      fmt.Sprintf("vpn%d", lay.vpnOf[i]),
			Name:     fmt.Sprintf("s%d", i),
			PE:       peName(lay.sitePE[i]),
			Prefixes: []addr.Prefix{addr.NewPrefix(addr.IPv4(lay.prefix[i]), 24)},
		})
	}
	phase(phases[2])
	b.ConvergeVPNs()

	phase(phases[3])
	if shards > 0 {
		if _, err := b.EnableSharding(core.ShardingOptions{Shards: shards, Workers: shards}); err != nil {
			return nil, err
		}
	}
	phase(phases[4])
	if sp.churn {
		for i, p := range lay.te {
			if _, err := b.SetupTELSP(fmt.Sprintf("te%d", i), peName(p[0]), peName(p[1]),
				5e6, qos.ClassVoice, rsvp.SetupOptions{}); err != nil {
				return nil, fmt.Errorf("TE LSP te%d: %w", i, err)
			}
		}
	}

	phase(phases[5])
	s := &scenario{lay: lay, sp: sp, b: b}
	for i := 0; i < numSite; i++ {
		from, to := fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", lay.peer[i])
		if !sp.churn {
			f, err := b.FlowBetween(fmt.Sprintf("f%d", i), from, to, 5060)
			if err != nil {
				return nil, err
			}
			b.RegisterSource(trafgen.CBR(b.Net, f, 200, sim.Millisecond, lay.phase[i], sp.horizon))
			s.flows = append(s.flows, f)
			continue
		}
		voice, err := b.FlowBetween(fmt.Sprintf("v%d", i), from, to, 5060)
		if err != nil {
			return nil, err
		}
		business, err := b.FlowBetween(fmt.Sprintf("a%d", i), from, to, 443)
		if err != nil {
			return nil, err
		}
		bulk, err := b.FlowBetween(fmt.Sprintf("b%d", i), from, to, 80)
		if err != nil {
			return nil, err
		}
		voice.DSCP, business.DSCP, bulk.DSCP = packet.DSCPEF, packet.DSCPAF41, packet.DSCPBestEffort
		b.RegisterSource(trafgen.CBR(b.Net, voice, 160, 20*sim.Millisecond, lay.phase[i], sp.horizon))
		b.RegisterSource(trafgen.Poisson(b.Net, business, 400, 50, lay.phase[i]+7*sim.Microsecond,
			sp.horizon, b.E.Rand().Fork()))
		b.RegisterSource(trafgen.CBR(b.Net, bulk, 1400, 2*sim.Millisecond, lay.phase[i]+13*sim.Microsecond, sp.horizon))
		s.flows = append(s.flows, voice, business, bulk)
	}
	b.E.MarkSetup()
	phase("")
	return s, nil
}

// scenarioID is the fingerprint Snapshot/Restore use to refuse a
// checkpoint from a different build.
func (s *scenario) scenarioID() string {
	return fmt.Sprintf("perfbench churn=%v seed=%d horizon=%v", s.sp.churn, s.lay.seed, s.sp.horizon)
}

// fingerprint renders the simulated outcome a run must reproduce: the
// control-plane digest, the packet counters and every flow's summary.
func (s *scenario) fingerprint() string {
	var sb strings.Builder
	sb.WriteString(s.b.StateDigest())
	fmt.Fprintf(&sb, "net: injected=%d delivered=%d dropped=%d isolation=%d\n",
		s.b.Net.Injected, s.b.Net.Delivered, s.b.Net.Dropped, s.b.IsolationViolations)
	for _, f := range s.flows {
		sb.WriteString(f.Stats.Summary())
		sb.WriteByte('\n')
	}
	return sb.String()
}

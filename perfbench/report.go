package main

import (
	"fmt"
	"time"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

// Queue depths and class mixes for qos.sched_ns: dataplane's ports hold at
// most one packet of one class; churn's congested core ports hold a
// best-effort backlog near the 64 KB limit (about 40 full-size packets)
// under one voice and one AF41 packet per ten bulk ones.
var (
	shallowMix = []qos.Class{qos.ClassBestEffort}
	deepMix    = []qos.Class{qos.ClassVoice, qos.ClassForDSCP(packet.DSCPAF41), qos.ClassBestEffort,
		qos.ClassBestEffort, qos.ClassBestEffort, qos.ClassBestEffort, qos.ClassBestEffort,
		qos.ClassBestEffort, qos.ClassBestEffort, qos.ClassBestEffort, qos.ClassBestEffort,
		qos.ClassBestEffort}
)

const (
	shallowDepth = 1
	deepDepth    = 40
	stepLimit    = 200 * sim.Millisecond // sim.step_ns replays this much traffic
)

// packetLayers reports the per-layer metrics of a packet workload: the
// exact counters and runtime figures of its untraced batches,
// then the replays.
func packetLayers(r *run, w *packetWorkload, lay *layout, plain []*batch, idle *scenario, thr float64, st opStats) error {
	bt0 := plain[0]
	inj := float64(bt0.injected)
	r.layer.set("sim.events_per_pkt", float64(bt0.events)/inj, "count")
	r.layer.set("netsim.handoffs_per_pkt", float64(bt0.handoffs)/inj, "count")
	r.layer.set("qos.drops", float64(bt0.drops), "count")
	var pend, depth []float64
	var cpu, wall, dlv, mallocs, bytes, gcs, pause float64
	var ckpt, restore, rebuild []float64
	for _, bt := range plain {
		pend = append(pend, bt.pending...)
		depth = append(depth, bt.depth...)
		cpu += float64(bt.cpuNs)
		wall += float64(bt.wallNs)
		dlv += float64(bt.delivered)
		mallocs += float64(bt.mem1.Mallocs - bt.mem0.Mallocs)
		bytes += float64(bt.mem1.TotalAlloc - bt.mem0.TotalAlloc)
		gcs += float64(bt.mem1.NumGC - bt.mem0.NumGC)
		pause += float64(bt.mem1.PauseTotalNs - bt.mem0.PauseTotalNs)
		ckpt = append(ckpt, bt.ckptMs...)
		restore = append(restore, bt.restoreMs...)
		rebuild = append(rebuild, bt.rebuildMs...)
	}
	n := float64(len(plain))
	r.layer.set("sim.pending.mean", mean(pend), "count")
	r.layer.set("sim.cpu_per_wall", cpu/wall, "ratio")
	r.layer.set("qos.queue_depth.mean", mean(depth), "count")
	r.layer.set("go.allocs_per_pkt", mallocs/dlv, "count")
	r.layer.set("go.bytes_per_pkt", bytes/dlv, "B")
	r.layer.set("go.gc_cycles", gcs/n, "count")
	r.layer.set("go.gc_pause_ms", pause/n/1e6, "ms")

	assign := replayPartition(r, idle)
	r.layer.set("netsim.max_shard_tx_share", txShare(idle, bt0.linkTx, assign), "ratio")

	h, sched, err := replayLayers(r, lay, w.sp, w.shards, idle, mean(pend), w.sp.churn)
	if err != nil {
		return err
	}
	if w.sp.churn {
		// The batches measured these on the run itself.
		r.layer.set("core.fault_ms", st.P50, "ms")
		r.layer.set("snapshot.checkpoint_ms", median(ckpt), "ms")
		r.layer.set("snapshot.restore_ms", median(restore), "ms")
		r.layer.set("core.rebuild_ms", median(rebuild), "ms")
	}
	setReconvergeUnexplained(r)
	if err := replayBackboneBGP(r, lay, w.sp, w.shards); err != nil {
		return err
	}

	// What the replayed layers explain of the measured cost per packet:
	// every event pays a heap push and pop, every hop a Router.Receive, and
	// every hop but the last an Enqueue/Dequeue.
	explained := r.layer["sim.heap_ns"].Value*r.layer["sim.events_per_pkt"].Value +
		sched*(h.hops()-1)
	for k, v := range h.hopsPerPkt {
		explained += h.receiveNs[k] * v
	}
	r.layer.set("layers.unexplained_ns_per_pkt", 1e9/thr-explained, "ns")
	return nil
}

// replayPartition times topo.Partition into two shards on the workload's
// graph and returns the assignment.
func replayPartition(r *run, s *scenario) []int {
	var pr *topo.PartitionResult
	var xs []float64
	r.tr.do("replay.topo.partition", func() {
		for i := 0; i < 9; i++ {
			t := time.Now()
			pr = topo.Partition(s.b.G, 2)
			xs = append(xs, float64(time.Since(t))/1e6)
		}
	})
	r.layer.set("topo.partition_ms", median(xs), "ms")
	return pr.Assign
}

// txShare is the largest share of link transmissions (bytes sent per link,
// tx) one shard of assign carries, grouping links by the shard of their
// sending node.
func txShare(s *scenario, tx []int64, assign []int) float64 {
	per := map[int]float64{}
	total := 0.0
	for i, sent := range tx {
		l := s.b.G.Link(topo.LinkID(i))
		b := float64(sent)
		per[assign[l.From]] += b
		total += b
	}
	best := 0.0
	for _, v := range per {
		best = max(best, v/total)
	}
	return best
}

// replayLayers runs the replays every packet layer shares: sim, device,
// mpls, vpn, netsim, qos, reconvergence and snapshot. idle is a built
// backbone with its traffic finished. It returns the per-hop replays and
// the scheduler cost at the workload's own depth.
func replayLayers(r *run, lay *layout, sp spec, shards int, idle *scenario, pending float64, deep bool) (*perHop, float64, error) {
	var steps []float64
	var stepPending float64
	var err error
	r.tr.do("replay.sim.step", func() { steps, stepPending, err = replaySteps(lay, sp, stepLimit) })
	if err != nil {
		return nil, 0, err
	}
	if pending == 0 { // no timed run of this build: use the replay's depth
		pending = stepPending
	}
	ss := summarize("Engine.Step", steps, 99)
	r.layer.set("sim.step_ns.p50", ss.P50, "ns")
	r.layer.set("sim.step_ns.tail", ss.Tail, "ns")
	r.prov["step"] = ss
	r.tr.do("replay.sim.heap", func() { r.layer.set("sim.heap_ns", replaySimHeap(int(pending+0.5)), "ns") })

	h, err := replayPerHop(idle, r.tr)
	if err != nil {
		return nil, 0, err
	}
	for _, k := range hopKinds {
		r.layer.set("device.receive_ns."+k, h.receiveNs[k], "ns")
	}
	r.layer.set("device.hops_per_pkt", h.hops(), "count")
	r.layer.set("mpls.ilm_ns", h.ilmNs, "ns")
	r.layer.set("vpn.vrf_lookup_ns", h.vrfNs, "ns")
	r.layer.set("netsim.probe_ns_per_hop", h.probeNs, "ns")

	var shallow, deepNs float64
	cfg := idle.b.Cfg
	r.tr.do("replay.qos.sched", func() {
		shallow = replayQoS(cfg.QueueBytes, cfg.WFQWeights, shallowMix, shallowDepth)
		deepNs = replayQoS(cfg.QueueBytes, cfg.WFQWeights, deepMix, deepDepth)
	})
	r.layer.set("qos.sched_ns.shallow", shallow, "ns")
	r.layer.set("qos.sched_ns.deep", deepNs, "ns")

	rc, err := replayReconvergence(lay, sp, shards, r.tr)
	if err != nil {
		return nil, 0, err
	}
	r.layer.set("ospf.converge_ms", rc.ospfConvergeMs, "ms")
	r.layer.set("ospf.notify_ms", rc.ospfNotifyMs, "ms")
	r.layer.set("ldp.converge_ms", rc.ldpConvergeMs, "ms")
	r.layer.set("rsvp.setup_ms", rc.rsvpSetupMs, "ms")
	r.layer.set("rsvp.lsps_per_fault", rc.lspsPerFault, "count")
	r.layer.set("core.fault_ms", rc.faultMs, "ms")
	setReconvergeUnexplained(r)

	// The codec on a state with traffic in flight.
	mid, err := build(lay, sp, shards, nil)
	if err != nil {
		return nil, 0, err
	}
	mid.b.Net.RunUntil(stepLimit)
	sr, err := replaySnapshot(mid, shards, r.tr)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot replay: %w", err)
	}
	r.layer.set("snapshot.bytes", float64(sr.bytes), "B")
	r.layer.set("snapshot.encode_mb_s", float64(sr.bytes)/1e6/(sr.checkpointMs/1e3), "MB/s")
	r.layer.set("snapshot.decode_mb_s", float64(sr.bytes)/1e6/(sr.decodeMs/1e3), "MB/s")
	r.layer.set("snapshot.checkpoint_ms", sr.checkpointMs, "ms")
	r.layer.set("snapshot.restore_ms", sr.restoreMs, "ms")
	r.layer.set("core.rebuild_ms", sr.rebuildMs, "ms")

	if deep {
		return h, deepNs, nil
	}
	return h, shallow, nil
}

// replayBackboneBGP measures the backbone's own iBGP mesh: its update
// count, best-path lookups on the converged RIB, a re-convergence and one
// PE session flap, on a throwaway build.
func replayBackboneBGP(r *run, lay *layout, sp spec, shards int) error {
	s, err := build(lay, sp, shards, nil)
	if err != nil {
		return err
	}
	m := s.b.BGP
	r.layer.set("bgp.updates", float64(m.UpdatesSent), "count")
	var best []func()
	for pe := 0; pe < numPE; pe++ {
		id, _ := s.b.G.NodeByName(peName(pe))
		sp, ok := m.Speaker(id)
		if !ok {
			return fmt.Errorf("no BGP speaker at %s", peName(pe))
		}
		for _, rt := range sp.BestRoutes() {
			p := rt.Prefix
			best = append(best, func() { sp.Best(p) })
		}
	}
	i := 0
	r.tr.do("replay.bgp.best", func() {
		r.layer.set("bgp.best_ns", timeCalls(15, 50000, func() {
			best[i%len(best)]()
			i++
		}), "ns")
	})

	var xs []float64
	var updates int
	r.tr.do("replay.bgp.converge", func() {
		for k := 0; k < 5; k++ {
			u := m.UpdatesSent
			t := time.Now()
			m.Converge()
			xs = append(xs, time.Since(t).Seconds())
			updates = m.UpdatesSent - u
		}
	})
	r.layer.set("bgp.converge_s", median(xs), "s")
	r.layer.set("bgp.updates_per_s", float64(updates)/median(xs), "1/s")

	id, _ := s.b.G.NodeByName(peName(0))
	w := m.WithdrawalsSent
	r.tr.do("replay.bgp.flap", func() {
		m.SessionDown(id, false)
		m.SessionUp(id)
	})
	r.layer.set("bgp.flap_updates", float64(m.WithdrawalsSent-w), "count")
	return nil
}

// setReconvergeUnexplained is the part of a fault's cost the ospf, ldp and
// rsvp replays do not account for.
func setReconvergeUnexplained(r *run) {
	r.layer.set("core.reconverge_unexplained_ms", r.layer["core.fault_ms"].Value-
		r.layer["ospf.notify_ms"].Value-r.layer["ldp.converge_ms"].Value-r.layer["rsvp.setup_ms"].Value, "ms")
}

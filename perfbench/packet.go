package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mplsvpn/internal/qos"
	"mplsvpn/internal/sim"
	"mplsvpn/internal/topo"
)

const (
	slice      = 10 * sim.Millisecond // RunUntil granularity of a batch
	drain      = 50 * sim.Millisecond // run past the horizon until queues empty
	faultEvery = 4                    // churn: one FailLink/RestoreLink every 4 slices
	snapEvery  = 25                   // churn: one Snapshot every 25 slices
	crashAt    = 50                   // churn: crash-resume after this slice
	calEvery   = 10                   // one hostSpeed burst every 10 slices
)

// packetWorkload is dataplane, dataplane-sharded2 or churn.
type packetWorkload struct {
	sp      spec
	shards  int
	tailPct float64 // percentile op_ms.tail is read at
}

// batch is one fixed-size unit of work: a freshly built scenario run to its
// horizon. Host times exclude set-up.
type batch struct {
	s         *scenario // final state (after a crash-resume, the resumed one)
	hostNs    int64     // everything the batch timed
	ops       []float64 // op_ms samples
	ckptMs    []float64
	restoreMs []float64
	rebuildMs []float64
	snapBytes []int
	liveHeap  float64 // bytes live after the batch
	events    uint64
	injected  int
	delivered int
	handoffs  int64
	drops     int64
	linkTx    []int64 // bytes sent per link
	pending   []float64
	depth     []float64
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	cpuNs     int64 // process CPU time over the batch's run
	wallNs    int64 // wall time over the same interval
	err       error
}

// runBatch builds a scenario and runs one batch. crash selects a
// crash-resume at slice crashAt (churn only); sample records pending
// events and queue depth per slice. tr, when set, receives spans; host,
// when set, runs a burst every calEvery slices, outside the timed calls.
func (w *packetWorkload) runBatch(lay *layout, crash, sample bool, tr *tracer, host *hostSpeed) *batch {
	bt := &batch{}
	root := tr.begin("batch")
	defer tr.end(root, nil)

	si := tr.begin("setup")
	var open = -1
	s, err := build(lay, w.sp, w.shards, func(phase string) {
		if open >= 0 {
			tr.end(open, nil)
			open = -1
		}
		if phase != "" {
			open = tr.begin(phase)
		}
	})
	tr.end(si, nil)
	if err != nil {
		bt.err = err
		return bt
	}
	bt.s = s

	runtime.ReadMemStats(&bt.mem0)
	cpu0 := cpuNs()
	wall0 := time.Now()
	var hostCpu0, hostWall0 int64
	if host != nil {
		hostCpu0, hostWall0 = host.cpuNs, host.wallNs
	}
	ev0 := s.b.E.Executed()
	n := int((w.sp.horizon + drain) / slice)
	bt.ops = make([]float64, 0, n)
	var failed [][2]int // churn: core links currently down
	for i := 1; i <= n; i++ {
		sp := tr.begin("run.slice")
		evBefore, dlvBefore := s.b.E.Executed(), s.b.Net.Delivered
		t := time.Now()
		s.b.Net.RunUntil(sim.Time(i) * slice)
		d := time.Since(t)
		if tr != nil {
			tr.end(sp, map[string]int64{"events": int64(s.b.E.Executed() - evBefore),
				"delivered": int64(s.b.Net.Delivered - dlvBefore)})
		}
		bt.hostNs += int64(d)
		if !w.sp.churn {
			bt.ops = append(bt.ops, float64(d)/1e6)
		}
		if sample {
			bt.pending = append(bt.pending, float64(s.b.E.Pending()))
			bt.depth = append(bt.depth, queueDepth(s))
		}
		if host != nil && i%calEvery == 0 {
			host.burst()
		}
		if !w.sp.churn || sim.Time(i)*slice >= w.sp.horizon {
			continue
		}
		if i%faultEvery == 0 {
			j := i / faultEvery
			fi := tr.begin("fault")
			t := time.Now()
			if len(failed) == 0 {
				f := lay.faults[(j/2)%len(lay.faults)]
				err = s.b.FailLink(pName(f[0]), pName(f[1]), 0)
				failed = append(failed, f)
			} else {
				err = s.b.RestoreLink(pName(failed[0][0]), pName(failed[0][1]), 0)
				failed = failed[:0]
			}
			d := time.Since(t)
			tr.end(fi, nil)
			bt.hostNs += int64(d)
			bt.ops = append(bt.ops, float64(d)/1e6)
			if err != nil {
				bt.err = fmt.Errorf("fault at slice %d: %w", i, err)
				return bt
			}
		}
		if i%snapEvery == 0 {
			ci := tr.begin("snapshot")
			t := time.Now()
			data, err := s.b.Snapshot(s.scenarioID())
			d := time.Since(t)
			tr.end(ci, map[string]int64{"bytes": int64(len(data))})
			bt.hostNs += int64(d)
			bt.ckptMs = append(bt.ckptMs, float64(d)/1e6)
			bt.snapBytes = append(bt.snapBytes, len(data))
			if err != nil {
				bt.err = fmt.Errorf("snapshot at slice %d: %w", i, err)
				return bt
			}
			if crash && i == crashAt {
				ri := tr.begin("restore")
				t := time.Now()
				var rs *scenario
				tr.do("restore.rebuild", func() { rs, err = build(lay, w.sp, w.shards, nil) })
				rebuilt := time.Since(t)
				if err == nil {
					tr.do("restore.restore", func() { err = rs.b.Restore(data, rs.scenarioID()) })
				}
				d := time.Since(t)
				tr.end(ri, nil)
				bt.hostNs += int64(d)
				bt.restoreMs = append(bt.restoreMs, float64(d)/1e6)
				bt.rebuildMs = append(bt.rebuildMs, float64(rebuilt)/1e6)
				if err != nil {
					bt.err = fmt.Errorf("crash-resume at slice %d: %w", i, err)
					return bt
				}
				ev0 = ev0 - s.b.E.Executed() + rs.b.E.Executed()
				s, bt.s = rs, rs
			}
		}
	}
	bt.events = s.b.E.Executed() - ev0
	bt.injected, bt.delivered = s.b.Net.Injected, s.b.Net.Delivered
	bt.handoffs, bt.drops = s.b.Net.CrossShardHandoffs(), linkDrops(s)
	for i := 0; i < s.b.G.NumLinks(); i++ {
		bt.linkTx = append(bt.linkTx, s.b.Net.LinkTxBytes(topo.LinkID(i)))
	}
	bt.cpuNs, bt.wallNs = cpuNs()-cpu0, int64(time.Since(wall0))
	if host != nil { // bursts are not the workload's
		bt.cpuNs -= host.cpuNs - hostCpu0
		bt.wallNs -= host.wallNs - hostWall0
	}
	runtime.ReadMemStats(&bt.mem1)
	// Packets and events are pooled, so the heap still live once the batch
	// has drained holds its high-water mark.
	bt.liveHeap = float64(liveHeap())
	return bt
}

// queueDepth is the mean packet count over the core links' class queues.
func queueDepth(s *scenario) float64 {
	total, n := 0, 0
	for i := 0; i < s.b.G.NumLinks(); i++ {
		l := s.b.G.Link(topo.LinkID(i))
		if !isCore(s, l) {
			continue
		}
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			if q := s.b.Net.PortQueue(l.ID, c); q != nil {
				total += q.Len()
			}
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// isCore reports whether l joins two P routers.
func isCore(s *scenario, l *topo.Link) bool {
	a, z := s.b.G.Name(l.From), s.b.G.Name(l.To)
	return len(a) > 1 && len(z) > 1 && a[0] == 'P' && a[1] != 'E' && z[0] == 'P' && z[1] != 'E'
}

// counters are the batch's exact figures: any difference between batches
// of one run, or from the recorded reference, is nondeterminism.
func (bt *batch) counters() map[string]float64 {
	c := map[string]float64{
		"injected":        float64(bt.injected),
		"delivered":       float64(bt.delivered),
		"sim.events":      float64(bt.events),
		"netsim.handoffs": float64(bt.handoffs),
		"qos.drops":       float64(bt.drops),
	}
	for i, n := range bt.snapBytes {
		c[fmt.Sprintf("snapshot.bytes[%d]", i)] = float64(n)
	}
	return c
}

func linkDrops(s *scenario) int64 {
	var d int64
	for i := 0; i < s.b.G.NumLinks(); i++ {
		d += s.b.Net.LinkDroppedPkts(topo.LinkID(i))
	}
	return d
}

// reference runs the workload's uninterrupted reference, untimed, along a
// different path from the timed batches: dataplane drives the engine one
// Step at a time, dataplane-sharded2 runs the serial engine, and churn runs
// without the crash-resume.
func (w *packetWorkload) reference(lay *layout) (string, error) {
	if !w.sp.churn {
		s, err := build(lay, w.sp, 0, nil)
		if err != nil {
			return "", err
		}
		end := w.sp.horizon + drain
		if w.shards == 0 {
			for s.b.E.Step() {
				if s.b.E.Now() > end {
					return "", fmt.Errorf("reference: event past %v", end)
				}
			}
		} else {
			s.b.Net.RunUntil(end)
		}
		return s.fingerprint(), nil
	}
	serial := *w
	serial.shards = 0
	bt := serial.runBatch(lay, false, false, nil, nil)
	if bt.err != nil {
		return "", bt.err
	}
	return bt.s.fingerprint(), nil
}

// runPacket runs a packet workload: the untimed reference, then fixed-size
// batches until the deadline, each checked against the reference. A traced
// run alternates traced and untraced batches for the first part of its time
// and replays the layers in the rest.
func runPacket(r *run, w *packetWorkload) error {
	lay := newLayout(r.seed)
	r.prov["horizon_sim_s"] = w.sp.horizon.Seconds()
	ref, err := w.reference(lay)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	selfTest(r, ref)

	// Set-up is ~10 ms and noisy, so it is sampled forty times, each from a
	// collected heap, and reported as the median.
	if r.host, err = newHostSpeed(); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < 40; i++ {
		r.host.burst()
		runtime.GC()
		t := time.Now()
		if _, err := build(lay, w.sp, w.shards, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	timedUntil := r.deadline()
	if r.trace {
		timedUntil = r.start.Add(r.seconds * 17 / 20) // the replays take the rest
	}
	var plain, traced []*batch
	var last *scenario
	var cs counterSet
	// A batch starts only if one more like the last ends before the deadline.
	var took time.Duration
	for i := 0; len(plain) < 2 || (r.trace && len(traced) == 0) || time.Now().Add(took).Before(timedUntil); i++ {
		t0 := time.Now()
		var tr *tracer
		if r.trace && i%2 == 1 {
			tr = r.tr
		}
		bt := w.runBatch(lay, w.sp.churn, r.trace, tr, r.host)
		if bt.err != nil {
			r.check(false, "batch %d: %v", i, bt.err)
			return nil
		}
		r.checkErr(compare(ref, bt.s.fingerprint()), fmt.Sprintf("batch %d", i))
		r.checkErr(bt.s.b.Net.CheckConservation(), fmt.Sprintf("batch %d conservation", i))
		if w.sp.churn { // every FailLink/RestoreLink, Snapshot and Restore returned nil
			r.attempted += len(bt.ops) + len(bt.ckptMs) + len(bt.restoreMs)
		}
		cs.observe(bt.counters())
		last = bt.s
		bt.s = nil // keep one scenario alive, not one per batch
		if tr != nil {
			traced = append(traced, bt)
		} else {
			plain = append(plain, bt)
		}
		took = time.Since(t0)
	}
	r.check(len(cs.diffs) == 0, "nondeterministic counters: %v", cs.diffs)
	exact := plain[0].counters()
	r.prov["counters"] = exact
	checkGolden(r, digest(ref+fmt.Sprint(sortedCounters(exact))))
	r.prov["batches"] = len(plain) + len(traced)

	var thr, peak, ops []float64
	var perBatch [][]float64
	for _, bt := range plain {
		thr = append(thr, float64(bt.delivered)/(float64(bt.hostNs)/1e9))
		peak = append(peak, (bt.liveHeap-r.host.heapBytes)/(1<<20))
		ops = append(ops, bt.ops...)
		perBatch = append(perBatch, bt.ops)
	}
	// A dataplane batch has 105 slices of equal work, so each batch yields
	// its own p90; churn's 24 faults a batch differ by link and are pooled.
	st := summarizeBatches("RunUntil over one 10 ms slice", perBatch, w.tailPct)
	if w.sp.churn {
		st = summarize("FailLink or RestoreLink, zero detection delay", ops, w.tailPct)
	}
	r.prov["op"] = st
	r.setHostTimes(median(setups), median(thr), st.P50)
	r.e2e.set("peak_heap_mb", median(peak), "MiB")
	if !r.trace {
		return nil
	}
	r.layer.set("op_ms.tail", st.Tail, "ms")

	var thrTraced []float64
	for _, bt := range traced {
		thrTraced = append(thrTraced, float64(bt.delivered)/(float64(bt.hostNs)/1e9))
	}
	r.layer.set("trace.overhead_pct", (median(thr)/median(thrTraced)-1)*100, "%")
	return packetLayers(r, w, lay, plain, last, median(thr), st)
}

func sortedCounters(c map[string]float64) []string {
	out := make([]string, 0, len(c))
	for k, v := range c {
		out = append(out, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(out)
	return out
}

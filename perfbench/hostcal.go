package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by ±25%
// over seconds to minutes with no change to the program. hostSpeed measures
// that drift: between the timed calls, the benchmark runs short bursts of a
// fixed reference computation that is not part of the program, and scales
// every host-time figure of the run by the median burst time against
// nominalBurstMs, raised to elasticity. A run on a slow stretch of the host
// then reads about what it would read on a typical one, while a change to
// the program moves the figures as before, since the reference computation
// never changes.
//
// The reference is built like a small discrete-event simulation, the
// simulator's own profile: a binary event heap, method calls through an
// interface, string-keyed map lookups, formatting, a CRC and a small sort,
// interleaved with dependent loads from a table larger than the L2 cache,
// as the simulator's lookups into its megabytes of state are. It allocates
// nothing, so it adds no garbage-collection work to the timed calls and
// leaves the go.* allocation figures unchanged.
const (
	burstUnits     = 4000
	chaseLines     = 1 << 17 // 8 MiB of 64-byte lines
	nominalBurstMs = 4.8     // about the median burst on the VM where the benchmark was defined (see README.md)
	// elasticity is how much the workloads' host times move, in logarithm,
	// per unit the burst time moves when the host's speed drifts: contention
	// slows the simulator more than the reference. README.md gives the
	// measurements it rests on.
	elasticity = 1.3
)

// hostSpeed times bursts of the reference computation. A burst is serial
// even on dataplane-sharded2: two references run at once tracked that
// workload's drift less well than one.
type hostSpeed struct {
	ref           *reference
	bursts        []float64 // ms
	cpuNs, wallNs int64     // spent in bursts, to exclude from CPU ÷ wall
	heapBytes     float64   // live heap the reference holds, to exclude from peak_heap_mb
}

func newHostSpeed() (*hostSpeed, error) {
	h := &hostSpeed{}
	heap0 := liveHeap()
	ref, err := newReference()
	if err != nil {
		return nil, fmt.Errorf("host speed reference: %w", err)
	}
	h.ref = ref
	h.heapBytes = float64(liveHeap()) - float64(heap0)
	h.burst() // warm-up, not recorded
	h.bursts = h.bursts[:0]
	return h, nil
}

// burst runs and times one burst. The reference's data and code are first
// brought back into the caches, untimed: a burst that refilled them after
// the workload's calls would time the workload's cache footprint too (17%
// of a burst on dataplane), and a change to that footprint would then move
// the factor.
func (h *hostSpeed) burst() {
	c0, t0 := cpuNs(), time.Now()
	h.ref.warm()
	h.ref.work(burstUnits / 8)
	t := time.Now()
	h.ref.work(burstUnits)
	d := time.Since(t)
	h.cpuNs += cpuNs() - c0
	h.wallNs += int64(time.Since(t0))
	h.bursts = append(h.bursts, float64(d)/1e6)
}

// factor is how much slower than nominal the host ran the workload over the
// run's bursts: host times are divided by it and rates multiplied.
func (h *hostSpeed) factor() float64 {
	return math.Pow(median(h.bursts)/nominalBurstMs, elasticity)
}

// record puts the calibration and the unscaled figures in the provenance
// line.
func (h *hostSpeed) record(r *run, raw map[string]float64) {
	r.prov["host_speed"] = map[string]any{
		"burst_ms.p50":   median(h.bursts),
		"burst_ms.p25":   percentile(h.bursts, 25),
		"burst_ms.p75":   percentile(h.bursts, 75),
		"nominal_ms":     nominalBurstMs,
		"elasticity":     elasticity,
		"bursts":         len(h.bursts),
		"factor":         h.factor(),
		"unscaled":       raw,
		"scaled_metrics": []string{"setup_s", "throughput", "op_ms.p50"},
	}
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// reference is the fixed computation hostSpeed times.
type reference struct {
	keys  []string
	byKey map[string]int
	items []refItem
	heap  []refEvent
	ints  []int
	buf   []byte
	x     uint64
	sink  uint64
	// chase is a random cycle through chaseLines cache lines, each holding
	// the index of the next. It is mapped outside the Go heap, so the
	// collector neither paces nor scans by it.
	chase []byte
	pos   uint32
}

type refItem interface{ cost(x uint64) uint64 }

type refA struct{ a, b uint64 }
type refB struct{ s string }
type refC struct{ p *refA }

func (i *refA) cost(x uint64) uint64 { return (x ^ i.a) * i.b }
func (i *refB) cost(x uint64) uint64 { return x + uint64(len(i.s)) }
func (i *refC) cost(x uint64) uint64 { return i.p.cost(x >> 1) }

// refEvent holds its item as an index: the heap then holds no pointers, so
// moving events never runs the collector's write barrier, which would make
// a burst slower whenever the workload's collection is under way.
type refEvent struct {
	at, seq uint64
	it      int
}

func newReference() (*reference, error) {
	c := &reference{byKey: map[string]int{}, x: 0x2545f4914f6cdd1d}
	for i := 0; i < 4096; i++ {
		k := "vrf-" + strconv.Itoa(i) + "/10." + strconv.Itoa(i%256) + ".0.0"
		c.keys = append(c.keys, k)
		c.byKey[k] = i
		switch i % 3 {
		case 0:
			c.items = append(c.items, &refA{uint64(i), uint64(i*7 + 1)})
		case 1:
			c.items = append(c.items, &refB{k})
		default:
			c.items = append(c.items, &refC{&refA{uint64(i), 3}})
		}
	}
	for i := 0; i < 2048; i++ {
		c.push(refEvent{at: c.rnd() % 1e6, seq: uint64(i), it: i})
	}
	c.ints = make([]int, 64)
	c.buf = make([]byte, 0, 256)
	var err error
	c.chase, err = syscall.Mmap(-1, 0, chaseLines*64, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	order := make([]uint32, chaseLines)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(c.rnd() % uint64(i))
		order[i], order[j] = order[j], order[i]
	}
	for i, line := range order {
		binary.LittleEndian.PutUint32(c.chase[line*64:], order[(i+1)%len(order)])
	}
	return c, nil
}

func (c *reference) rnd() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (c *reference) less(i, j int) bool {
	if c.heap[i].at != c.heap[j].at {
		return c.heap[i].at < c.heap[j].at
	}
	return c.heap[i].seq < c.heap[j].seq
}

func (c *reference) push(e refEvent) {
	c.heap = append(c.heap, e)
	for i := len(c.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.less(i, p) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *reference) pop() refEvent {
	e := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && c.less(l, s) {
			s = l
		}
		if l+1 < n && c.less(l+1, s) {
			s = l + 1
		}
		if s == i {
			return e
		}
		c.heap[i], c.heap[s] = c.heap[s], c.heap[i]
		i = s
	}
}

// warm touches all of the reference's data.
func (c *reference) warm() {
	for i, k := range c.keys {
		c.sink += uint64(c.byKey[k]) + c.items[i].cost(uint64(i))
	}
	for _, e := range c.heap {
		c.sink += e.at
	}
}

// work runs units events: each pops the earliest, calls its item, looks up
// a key, formats and checksums, follows the chase four lines, and
// reschedules it; every eighth also sorts.
func (c *reference) work(units int) {
	for u := 0; u < units; u++ {
		for k := 0; k < 4; k++ {
			c.pos = binary.LittleEndian.Uint32(c.chase[c.pos*64:])
		}
		e := c.pop()
		c.sink += c.items[e.it].cost(e.at)
		k := c.keys[c.rnd()%uint64(len(c.keys))]
		c.sink += uint64(c.byKey[k])
		c.buf = strconv.AppendUint(c.buf[:0], e.at, 10)
		c.buf = append(c.buf, k...)
		c.sink += uint64(crc32.ChecksumIEEE(c.buf))
		if u%8 == 0 {
			for i := range c.ints {
				c.ints[i] = int(c.rnd() % 4096)
			}
			slices.Sort(c.ints)
			c.sink += uint64(c.ints[0])
		}
		e.at += 1 + c.rnd()%1000
		e.it = int(c.rnd() % uint64(len(c.items)))
		c.push(e)
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's figures by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// percentile returns the p-th percentile of xs (nearest rank on a sorted
// copy); 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// opStats is a named latency sample: its median and its tail, read at a
// percentile fixed per workload so runs stay comparable. TailOK reports
// whether at least ten samples lie beyond the tail percentile.
type opStats struct {
	Op      string  `json:"op"`
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_percentile"`
	Tail    float64 `json:"tail"`
	TailOK  bool    `json:"tail_has_10_beyond"`
}

func summarize(op string, xs []float64, tailPct float64) opStats {
	return opStats{Op: op, Samples: len(xs), P50: median(xs), TailPct: tailPct,
		Tail: percentile(xs, tailPct), TailOK: float64(len(xs))*(1-tailPct/100) >= 10}
}

// summarizeBatches reads the median and tail within each batch and reports
// the median of each over the batches, so a batch slowed by the host moves
// neither figure. Every batch must hold ten samples beyond tailPct.
func summarizeBatches(op string, per [][]float64, tailPct float64) opStats {
	st := opStats{Op: op + " (median over batches of each batch's figure)", TailPct: tailPct, TailOK: true}
	var p50s, tails []float64
	for _, xs := range per {
		b := summarize(op, xs, tailPct)
		st.Samples += b.Samples
		st.TailOK = st.TailOK && b.TailOK
		p50s, tails = append(p50s, b.P50), append(tails, b.Tail)
	}
	st.P50, st.Tail = median(p50s), median(tails)
	return st
}

// counterSet records deterministic counters per batch and reports any
// counter that differs between batches of one run.
type counterSet struct {
	first map[string]float64
	diffs []string
}

func (c *counterSet) observe(batch map[string]float64) {
	if c.first == nil {
		c.first = batch
		return
	}
	for k, v := range batch {
		if w, ok := c.first[k]; !ok || w != v {
			c.diffs = append(c.diffs, fmt.Sprintf("%s: %v then %v", k, w, v))
		}
	}
}

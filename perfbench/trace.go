package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one run
// share RunID; Parent is the enclosing span's ID (0 at the root). Counts
// are work counters read at the span's boundaries (events executed,
// packets delivered, calls replayed).
type span struct {
	RunID  string           `json:"run_id"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write puts them on disk once the run is
// over. A nil *tracer records nothing, so untraced runs pay one nil check
// per boundary.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	stack []int // indexes into spans of the open spans
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{RunID: t.runID, ID: len(t.spans) + 1, Parent: parent,
		Name: name, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, attaching counts read at its boundary.
func (t *tracer) end(i int, counts map[string]int64) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].Counts = counts
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
}

// do wraps fn in a span.
func (t *tracer) do(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i, nil)
}

// selfTime is one span name's total and self time (total minus the time
// its direct children cover).
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores the spans and their self-time table as JSON under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", t.runID))
	data, err := json.Marshal(struct {
		RunID string     `json:"run_id"`
		Self  []selfTime `json:"self_time"`
		Spans []span     `json:"spans"`
	}{t.runID, t.selfTimes(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary, recorded by the benchmark's
// wrappers and call sites (never inside the program). Start and End are
// nanoseconds since the run's epoch. ID is the arrival or control-plane
// batch the span belongs to (-1 until linked). Parent indexes the span
// that caused it (-1 for roots). Key and Aux are linking hints the
// wrappers capture where the program gives them no ID: the goroutine of
// an interceptor connection, a loopback port, a site index.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Key    int64  `json:"key,omitempty"`
	Aux    int64  `json:"aux,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory for the traced run and writes them out at
// exit. A nil or disabled Tracer records nothing, so the untraced run's
// wrappers cost one branch. The traced run enables it only once set-up is
// done, so set-up work leaves no spans.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start begins recording.
func (t *Tracer) Start() { t.on.Store(true) }

// Stop ends recording.
func (t *Tracer) Stop() { t.on.Store(false) }

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Record stores one span.
func (t *Tracer) Record(name string, start, end time.Time, id, key, aux int64) {
	if !t.On() {
		return
	}
	s := Span{
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		ID:     id,
		Parent: -1,
		Key:    key,
		Aux:    aux,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans; call only once recording stopped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// WriteFile writes every span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from its stack header.
// Only the traced run calls it: it links the spans an interceptor
// connection's goroutine produces (upstream dial, status lookup) to each
// other without any hook inside the program.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	const prefix = "goroutine "
	if len(b) <= len(prefix) {
		return 0
	}
	b = b[len(prefix):]
	end := 0
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	id, _ := strconv.ParseInt(string(b[:end]), 10, 64) // malformed header: 0, unlinked
	return id
}

// interval is a half-open [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it covered by the union
// of the children's intervals (clipped to the parent), so overlapping
// children are not subtracted twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if open {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// spanIndex groups span indices by name.
type spanIndex map[string][]int

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{}
	for i, s := range spans {
		ix[s.Name] = append(ix[s.Name], i)
	}
	return ix
}

// nestByID links every child-named span to the parent-named span with the
// same ID whose interval contains it. Control-plane hops run one at a time
// per batch, so containment is unambiguous.
func nestByID(spans []Span, ix spanIndex, child, parent string) {
	byID := map[int64][]int{}
	for _, p := range ix[parent] {
		byID[spans[p].ID] = append(byID[spans[p].ID], p)
	}
	for _, c := range ix[child] {
		for _, p := range byID[spans[c].ID] {
			if spans[p].Start <= spans[c].Start && spans[c].End <= spans[p].End {
				spans[c].Parent = p
				break
			}
		}
	}
}

// childIntervals collects, per parent index, the intervals of its linked
// children.
func childIntervals(spans []Span) map[int][]interval {
	out := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], interval{s.Start, s.End})
		}
	}
	return out
}

// histOf builds a histogram of the durations of every span named name.
func histOf(spans []Span, ix spanIndex, name string) *Histogram {
	h := &Histogram{}
	for _, i := range ix[name] {
		h.RecordNanos(spans[i].Dur())
	}
	return h
}

// selfHist builds a histogram of the self times of every span named name.
func selfHist(spans []Span, ix spanIndex, kids map[int][]interval, name string) *Histogram {
	h := &Histogram{}
	for _, i := range ix[name] {
		h.RecordNanos(selfTime(interval{spans[i].Start, spans[i].End}, kids[i]))
	}
	return h
}

// traceFile names the span dump of a workload's traced run; each traced
// run replaces the previous one's.
func traceFile(dir, workload string) string {
	return filepath.Join(dir, "trace-"+workload+".jsonl")
}

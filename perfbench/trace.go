package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: a name, its interval since the trace origin,
// the span that caused it (0 for none) and the request it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// dur is the span's duration in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	at := int64(now().Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: at, End: at})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := int64(now().Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
}

// do runs f inside a span; f receives the span's id to parent its own
// spans on.
func (t *tracer) do(name string, parent, req int, f func(id int)) {
	id := t.start(name, parent, req)
	f(id)
	t.end(id)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (calls
// made concurrently) count once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// byReq sums, per request, the durations (in ms) of the spans of one
// name.
func byReq(spans []span, name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] += float64(s.dur()) / 1e6
		}
	}
	return out
}

// medianOf returns the median of a per-request map's values.
func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	return median(xs)
}

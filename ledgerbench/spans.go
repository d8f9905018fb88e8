package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer: the client's
// HTTP round trip, a handler it wrapped, a cluster.Worker call it
// wrapped, or the engine time a server reported inside one of those.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the phase root
	Req    int64  `json:"req"`    // request id shared by a request's spans; 0 for the root
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"` // fleet member, for worker spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op returning id -1.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name, node string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Node: node, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// reported adds a child of the closed span parent for d of work the
// server timed itself (its reported wall_ms). Where inside the parent
// it ran is not observable from outside, so it is placed at the
// parent's end and clipped to the parent.
func (t *tracer) reported(name string, parent int32, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.End - int64(d)
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, Span{ID: int32(len(t.spans)), Parent: parent, Req: p.Req, Name: name, Node: p.Node, Start: start, End: p.End})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans to path, one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover. Overlapping children are counted once.
func selfTimes(spans []Span) []int64 {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// ledger splits the root span's wall time among span names: every
// instant goes to the innermost spans active then, shared evenly among
// them. Without concurrency a name's share is the sum of its spans'
// self times; with it (two workers, two client connections) the shares
// still add up to the root's duration exactly. The root's own share is
// returned under the name "unattributed".
func ledger(spans []Span, root int32) map[string]float64 {
	depth := make([]int, len(spans))
	in := make([]bool, len(spans))
	lo := make([]int64, len(spans))
	hi := make([]int64, len(spans))
	in[root] = true
	lo[root], hi[root] = spans[root].Start, spans[root].End
	for _, s := range spans { // parents precede children
		if s.ID == root || s.Parent < 0 || !in[s.Parent] {
			continue
		}
		// Clip to the parent so the tree nests even if clocks jitter.
		lo[s.ID], hi[s.ID] = max(s.Start, lo[s.Parent]), min(s.End, hi[s.Parent])
		if hi[s.ID] > lo[s.ID] {
			in[s.ID] = true
			depth[s.ID] = depth[s.Parent] + 1
		}
	}
	type edge struct {
		t     int64
		start bool
		id    int32
	}
	var edges []edge
	for _, s := range spans {
		if in[s.ID] {
			edges = append(edges, edge{lo[s.ID], true, s.ID}, edge{hi[s.ID], false, s.ID})
		}
	}
	// At equal times ends go first, deepest first; starts shallowest first.
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		switch {
		case ea.t != eb.t:
			return ea.t < eb.t
		case ea.start != eb.start:
			return !ea.start
		case ea.start:
			return depth[ea.id] < depth[eb.id]
		default:
			return depth[ea.id] > depth[eb.id]
		}
	})
	name := func(id int32) string {
		if id == root {
			return "unattributed"
		}
		return spans[id].Name
	}
	activeKids := make([]int, len(spans))
	inner := map[string]int{}
	innerN := 0
	out := map[string]float64{}
	for i, e := range edges {
		p := spans[e.id].Parent
		if e.start {
			if e.id != root {
				if activeKids[p] == 0 {
					inner[name(p)]--
					innerN--
				}
				activeKids[p]++
			}
			inner[name(e.id)]++
			innerN++
		} else {
			inner[name(e.id)]--
			innerN--
			if e.id != root {
				activeKids[p]--
				if activeKids[p] == 0 {
					inner[name(p)]++
					innerN++
				}
			}
		}
		if i+1 < len(edges) && innerN > 0 {
			seg := float64(edges[i+1].t - e.t)
			for n, c := range inner {
				if c > 0 {
					out[n] += seg * float64(c) / float64(innerN)
				}
			}
		}
	}
	return out
}

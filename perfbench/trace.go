package main

import (
	"sort"
	"time"
)

// span is one traced interval of the benchmark's own calls into the
// program. Times are offsets from the tracer's origin; parent is -1 for a
// root.
type span struct {
	layer      string
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall-clock instant to an offset.
func (t *tracer) at(ts time.Time) time.Duration { return ts.Sub(t.origin) }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(parent int, layer, name string, start, end time.Duration) int {
	if end < start {
		end = start
	}
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// layerStats summarises one layer: its spans' mean self time (duration
// minus the part their children cover) and the share of the layer's time
// its children cover.
type layerStats struct {
	selfMean time.Duration
	coverage float64
}

// summarise computes self time and child coverage per layer.
func (t *tracer) summarise() map[string]layerStats {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	type acc struct {
		n              int
		dur, self, cov time.Duration
	}
	by := map[string]*acc{}
	for i, s := range t.spans {
		a := by[s.layer]
		if a == nil {
			a = &acc{}
			by[s.layer] = a
		}
		d := s.end - s.start
		c := covered(s, t.spans, kids[i])
		a.n++
		a.dur += d
		a.cov += c
		a.self += d - c
	}
	out := map[string]layerStats{}
	for name, a := range by {
		ls := layerStats{selfMean: a.self / time.Duration(a.n)}
		if a.dur > 0 {
			ls.coverage = float64(a.cov) / float64(a.dur)
		}
		out[name] = ls
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, all []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].start, all[k].end
		if a < p.start {
			a = p.start
		}
		if b > p.end {
			b = p.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// traceLayers are the span layers every workload reports, outermost first:
// a job (a chain's core.New plus run, or a service job from submit to
// result), a run (a chain's RunContext, or one shard of a service job), a
// sweep, a sweep phase and a kernel.
var traceLayers = []string{"job", "run", "sweep", "phase", "kernel"}

// traceMetrics turns the span summary into per-layer metrics: each layer's
// mean self time and the share of its time its children cover.
func traceMetrics(m metrics, t *tracer) {
	st := t.summarise()
	for _, l := range traceLayers {
		s := st[l]
		m.set("trace."+l+".self_ms", ms(s.selfMean), "ms")
		if l != "kernel" {
			m.set("trace."+l+".coverage", s.coverage, "ratio")
		}
	}
	m.set("trace.spans", float64(len(t.spans)), "count")
}

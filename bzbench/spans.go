package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request or iteration share Req; Parent is the enclosing span's ID (0 for
// a root). Lane is the load goroutine that made the call: each lane runs
// its calls one after another, so a lane's wall time is the budget its
// spans' self times are charged against.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(lane int, req int64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Lane: lane, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns fn's error and the call's wall
// time, which is measured whether or not the tracer is on.
func (t *tracer) call(lane int, req int64, parent int, name string, fn func(id int) error) (time.Duration, error) {
	id := t.begin(lane, req, parent, name)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap one
// another (concurrent calls under one parent); the covered part is the
// union of their intervals clipped to the parent, so overlap is never
// subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerRow is one line of a per-layer self-time table.
type layerRow struct {
	Name  string
	Calls int
	Self  time.Duration
}

// unattributed names the table row for lane time no span covers.
const unattributed = "unattributed"

// layerTable sums self time per span name. budget is the lanes' total
// wall time (one lane's wall time per load goroutine); the returned
// rows, the unattributed row included, sum to it exactly. ok is false
// when the spans claim more time than the budget, which means a span
// escaped its lane.
func layerTable(spans []span, budget time.Duration) (rows []layerRow, ok bool) {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var sum time.Duration
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Calls++
		r.Self += self[s.ID]
		sum += self[s.ID]
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	rest := budget - sum
	rows = append(rows, layerRow{Name: unattributed, Self: rest})
	return rows, rest >= 0
}

// printLayerTable writes the table with each row's share of the budget.
func printLayerTable(w io.Writer, workload string, rows []layerRow, budget time.Duration, lanes int) {
	fmt.Fprintf(w, "per-layer self time, %s (%d lane(s) x wall = %.3f s):\n", workload, lanes, budget.Seconds())
	fmt.Fprintf(w, "  %-28s %8s %12s %8s\n", "layer", "calls", "self_s", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
		fmt.Fprintf(w, "  %-28s %8d %12.6f %7.2f%%\n", r.Name, r.Calls, r.Self.Seconds(), 100*r.Self.Seconds()/budget.Seconds())
	}
	fmt.Fprintf(w, "  %-28s %8s %12.6f %7.2f%%\n", "total", "", sum.Seconds(), 100*sum.Seconds()/budget.Seconds())
}

// durations returns the durations in ms of every span with the given name.
func durations(spans []span, name string) *dist {
	d := &dist{}
	for _, s := range spans {
		if s.Name == name {
			d.add(float64(s.dur()) / float64(time.Millisecond))
		}
	}
	return d
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

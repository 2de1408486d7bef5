package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around a public entry point. Start and End are nanoseconds since
// the recorder was created; Key names the point or study the call served.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: do calls fn and records nothing, so the timed code
// path is the same in both modes.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named name under parent and returns fn's
// error; fn receives the new span's ID for its own children.
func (r *recorder) do(parent int64, name, key string, fn func(id int64) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Key: key})
	r.mu.Unlock()
	start := time.Since(r.t0).Nanoseconds()
	err := fn(id)
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
	return err
}

// add records a span whose bounds were observed elsewhere, such as the
// lifetime of a child process.
func (r *recorder) add(parent int64, name, key string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: int64(len(r.spans) + 1), Parent: parent, Name: name, Key: key,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus child coverage
}

// foldSelf computes, per span name, the count, the total duration and
// the self time: each span's duration minus the part of its interval
// covered by its children (overlapping children count once, and a
// child's time outside its parent is ignored). The result is sorted by
// self time, largest first.
func foldSelf(spans []Span) []layerTime {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// byName returns the aggregate of one span name (zero if absent).
func byName(lts []layerTime, name string) layerTime {
	for _, lt := range lts {
		if lt.Name == name {
			return lt
		}
	}
	return layerTime{Name: name}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeLayerTable writes the self-time fold as an aligned text table.
func writeLayerTable(w io.Writer, lts []layerTime) error {
	var all time.Duration
	for _, lt := range lts {
		all += lt.Self
	}
	if _, err := fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%"); err != nil {
		return err
	}
	for _, lt := range lts {
		share := 0.0
		if all > 0 {
			share = 100 * float64(lt.Self) / float64(all)
		}
		if _, err := fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), share); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

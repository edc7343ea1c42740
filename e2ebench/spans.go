package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share Req; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced code paths pay one nil check per
// call site. Spans are only recorded from the generator goroutine, or
// from a hypercall handler while the generator waits for that ticket,
// so the list needs no lock.
type spans struct {
	t0   time.Time
	req  int64
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// next starts a new request: later spans carry its id.
func (s *spans) next() {
	if s != nil {
		s.req++
	}
}

// begin opens a span and returns its id (-1 when not tracing).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Req: s.req, ID: len(s.list), Parent: parent, Name: name,
		Start: int64(time.Since(s.t0))})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s != nil {
		s.list[id].End = int64(time.Since(s.t0))
	}
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Name        string
	N           int
	Total, Self time.Duration
	durs        []float64 // µs, for medians
}

func (l *layerTime) total() time.Duration {
	if l == nil {
		return 0
	}
	return l.Total
}

func (l *layerTime) mean() time.Duration {
	if l == nil || l.N == 0 {
		return 0
	}
	return l.Total / time.Duration(l.N)
}

// medianUs is the median span duration in µs (0 if none).
func (l *layerTime) medianUs() float64 {
	if l == nil {
		return 0
	}
	return median(l.durs)
}

// summary aggregates the spans from index `from` on by name. A span's
// self time is its duration minus that of its children; the benchmark
// opens children one at a time inside their parent, so they never
// overlap.
func (s *spans) summary(from int) map[string]*layerTime {
	out := map[string]*layerTime{}
	child := make([]int64, len(s.list))
	for _, sp := range s.list[from:] {
		if sp.Parent >= from {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range s.list[from:] {
		l := out[sp.Name]
		if l == nil {
			l = &layerTime{Name: sp.Name}
			out[sp.Name] = l
		}
		d := sp.End - sp.Start
		l.N++
		l.Total += time.Duration(d)
		l.Self += time.Duration(d - child[from+i])
		l.durs = append(l.durs, float64(d)/1e3)
	}
	return out
}

// sortedLayers lists a summary by name.
func sortedLayers(m map[string]*layerTime) []*layerTime {
	out := make([]*layerTime, 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores every span as one JSON object per line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

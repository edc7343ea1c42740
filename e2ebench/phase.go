package main

import (
	"runtime"
	"sort"
	"time"
)

// phase is one closed-loop pass set over the seeded request sequence.
type phase struct {
	lat               []float64 // µs per request, ascending once the phase ends
	p50, p90          float64
	units             int
	virt              float64
	nvirt             int
	attempted, failed int
	firstErr          error
	elapsed           time.Duration
	allocBytes        uint64
}

// runPhase replays the seeded sequence in whole passes, one request
// outstanding, until d has elapsed (at least one pass). Whole passes
// keep the per-class counts and layer work of a run a multiple of one
// pass's, so they repeat between runs with the same seed.
func runPhase(b bench, d time.Duration, direct bool, sp *spans) *phase {
	root := "request"
	if direct {
		root = "direct"
	}
	p := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i := 0; i < b.size(); i++ {
			sp.next()
			id := sp.begin(root, -1)
			t0 := time.Now()
			var o outcome
			if direct {
				o = b.direct(i, sp, id)
			} else {
				o = b.serve(i, sp, id)
			}
			lat := time.Since(t0)
			sp.end(id)
			p.lat = append(p.lat, float64(lat.Nanoseconds())/1e3)
			p.attempted++
			p.units += o.units
			p.virt += o.virt
			p.nvirt += o.nvirt
			if o.err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = o.err
				}
			}
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	sort.Float64s(p.lat)
	p.p50, p.p90 = percentile(p.lat, 50), percentile(p.lat, 90)
	return p
}

func (p *phase) throughput() float64 { return float64(p.units) / p.elapsed.Seconds() }

func (p *phase) allocKBPerReq() float64 { return float64(p.allocBytes) / 1024 / float64(p.attempted) }

func (p *phase) virtMean() float64 {
	if p.nvirt == 0 {
		return 0
	}
	return p.virt / float64(p.nvirt)
}

// perUnit is the host time per completed ticket.
func (p *phase) perUnit() time.Duration {
	if p.units == 0 {
		return 0
	}
	return p.elapsed / time.Duration(p.units)
}

// liveHeapMB is the live Go heap after forced collections; the second
// empties what the first moved to sync.Pool victim caches. Callers drop
// the latency samples first, so the figure is the program's state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

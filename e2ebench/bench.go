package main

import (
	"strings"
	"time"

	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/wasp"
)

// outcome is one request's result as the generator saw it. A request
// is one HTTP request or UDF call, one 64-ticket batch for fanout-tiny,
// and one cluster query for cluster-sim.
type outcome struct {
	units int     // tickets the request completed (the throughput unit)
	virt  float64 // virtual µs summed over the invocations it covers
	nvirt int     // invocations behind virt
	err   error   // the unexpected outcome, nil when every output checked
}

// bench is one workload after set-up. serve and direct take the index
// of a request in the seeded sequence and check its output.
type bench interface {
	// size is the length of the seeded request sequence.
	size() int
	// serve sends request i through the scheduler, the measured path.
	serve(i int, sp *spans, parent int) outcome
	// direct runs the same request one layer lower: Wasp.Run or
	// FileServer.Serve without the scheduler, or for cluster-sim one
	// virtual batch of the same trace without the epoch loop.
	direct(i int, sp *spans, parent int) outcome
	// verify re-checks what can only be checked after the timed phase
	// and returns how many requests it checked and how many failed.
	verify() (checked, failed int, err error)
	// stats are the per-run counters gathered from wasp.Result.
	stats() *runStats
	// registry exposes the runtime's and scheduler's own counters; nil
	// when the workload keeps no runtime between requests.
	registry() *obs.Registry
	// describe summarises the seeded sequence of one pass.
	describe() string
	// extra adds the workload's own per-layer figures to the table.
	extra(t layerTable, tr *tracedRun)
	close()
}

// workload names a benchmark workload and builds it.
type workload struct {
	name string
	// unit is what one request is, for the printed table.
	unit  string
	setup func(seed uint64, sp *spans) (bench, error)
}

var workloads = []workload{
	{"http-warm", "request", setupHTTP},
	{"udf-tenants", "request", setupUDF},
	{"fanout-tiny", "64-ticket batch", setupFanout},
	{"cluster-sim", "query", setupCluster},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runStats accumulates the per-run figures wasp.Result carries and the
// counts of the benchmark's own hypercall handler.
type runStats struct {
	runs, retired, compiles, deopts int
	boots, restores, cowResets      int
	cowPages                        int
	denied                          int
	// Hypercalls the counting handler saw on audit class (c) runs, the
	// class the exit metric is defined on, and the time they took.
	auditRuns, auditExits int
	auditHandler          time.Duration
}

// add records one completed run. A restore without copied-back pages
// is a full snapshot copy; one with pages is a COW reset of a parked
// shell; a run that used no snapshot booted the image.
func (r *runStats) add(res *wasp.Result) {
	r.runs++
	r.retired += int(res.Retired)
	r.compiles += int(res.JIT.BlocksCompiled)
	r.deopts += int(res.JIT.BlockDeopts)
	switch {
	case !res.SnapshotUsed:
		r.boots++
	case res.COWPages > 0:
		r.cowResets++
		r.cowPages += res.COWPages
	default:
		r.restores++
	}
}

func (r *runStats) perRun(n int) float64 {
	if r.runs == 0 {
		return 0
	}
	return float64(n) / float64(r.runs)
}

// countingHandler is the benchmark's RunConfig.Handler: it forwards to
// Env.Handle and counts every hypercall that reaches the handler. It is
// used in place of Result.IOExits, which accumulates across the runs of
// a parked COW shell (see the package doc). A timed handler also keeps
// each call's start and end on the spans' clock; it runs on a scheduler
// worker, so the generator turns them into spans only after Wait.
type countingHandler struct {
	env   *hypercall.Env
	calls int
	spent time.Duration
	t0    time.Time // zero: untimed
	times [][2]int64
}

func newCountingHandler(sp *spans) *countingHandler {
	h := &countingHandler{env: hypercall.NewEnv()}
	if sp != nil {
		h.t0 = sp.t0
	}
	return h
}

func (h *countingHandler) Handle(call hypercall.Args, mem hypercall.GuestMem) (uint64, error) {
	h.calls++
	if h.t0.IsZero() {
		return h.env.Handle(call, mem)
	}
	start := time.Since(h.t0)
	ret, err := h.env.Handle(call, mem)
	end := time.Since(h.t0)
	h.spent += end - start
	h.times = append(h.times, [2]int64{int64(start), int64(end)})
	return ret, err
}

// addCalls records a timed handler's calls as "hypercall.handle" spans
// under parent.
func (s *spans) addCalls(h *countingHandler, parent int) {
	if s == nil {
		return
	}
	for _, t := range h.times {
		s.list = append(s.list, span{Req: s.req, ID: len(s.list), Parent: parent,
			Name: "hypercall.handle", Start: t[0], End: t[1]})
	}
}

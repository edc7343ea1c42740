// Command e2ebench is the repository's end-to-end host-time benchmark.
// It drives four seeded workloads through the public APIs of httpd,
// sched, wasp, vcc and serverless, checks every output, and prints the
// end-to-end metrics of one workload with their units. A traced run
// (--trace 1) times the benchmark's own calls into each layer and
// prints the per-layer table. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload http-warm --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package into .bench_build and runs it. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The command exits non-zero on any
// unexpected outcome.
//
// # Workloads
//
// All load comes from one generator goroutine in a closed loop: one
// request (or batch, or query) is outstanding at a time, and the
// real-mode scheduler has one worker per CPU. The generator replays a
// fixed seeded request sequence in whole passes until --seconds have
// elapsed, so the per-class counts and the work each layer does in a
// pass repeat exactly between runs with the same seed.
//
//   - http-warm: the Fig 13 static file server. httpd.NewFileServer
//     over 64 seeded files of 24 B to 7.5 KiB, with 384 of every 4,096
//     requests for missing paths. Requests go through FileServer.Submit
//     on a runtime with COW resets and async clean, Snapshot on. It
//     loads guest execution (store-heavy), about seven hypercall exits
//     and a COW reset per request; the scheduler does little.
//   - udf-tenants: the §7.1 database-UDF scenario. Four vcc UDF classes
//     (a: writes globals, b: locals only, c: one permitted write, d: a
//     write the default-deny policy kills) are cloned into 1,024
//     tenants with Image.WithName and picked by a stratified Zipf draw
//     over serverless.NewTraceRNG. Every tenant is primed during set-up. It
//     loads the shared code cache, parked COW shells and the snapshot
//     forest at a footprint well past the CPU caches; class (a)
//     re-decodes and re-compiles its traces on every call, and class
//     (d) takes the failure path: denial, a shell released dirty, the
//     async clean.
//   - fanout-tiny: SubmitBatch of 64 tiny 16-bit guests
//     (serverless.PlacementShortImage, no snapshot), then WaitAll, on
//     the default runtime (pooling, synchronous clean). Dispatch, pool
//     acquire and clean dominate a ~74-instruction guest. It bypasses
//     the cpu store path: a change there should not move it.
//   - cluster-sim: each request is one serverless.RunCluster query of a
//     ClusterMix trace seeded from the workload seed, under
//     sched.QueueScale, on a fresh virtual fleet. It is the only
//     workload on the virtual-mode event core and autoscaling, and has
//     no guest CPU: the null case for cpu and wasp changes.
//
// BENCHMARK.json gates udf-tenants, fanout-tiny and cluster-sim.
// http-warm runs with the same command but is not gated: on a 2-vCPU
// Xeon host with go1.24, its pooled p50 sat near 58 µs in most
// runs and near 38 µs in some (2 of 10 runs of 10 s; quartile spread
// 14% of the median), and throughput followed (12%). The same two
// speeds show in a single-threaded FileServer.Serve loop pinned to one
// CPU, so they are a state of the host, not of the scheduler, and a
// homogeneous request mix turns them into a jump in p50.
//
// # End-to-end metrics
//
// lat_p50_us and lat_p90_us are host µs from the call to the checked
// result of one request; the highest percentile with at least ten
// samples beyond it is printed with its sample count but not gated.
// throughput_rps is completed tickets (simulated tickets for
// cluster-sim) per host second of the timed phase. alloc_kb_per_req is
// Go heap allocated per request; live_heap_mb is the live heap after
// the timed phase and a forced GC; setup_s is the median of at least
// five set-ups in the run. virt_mean_us (mean virtual µs per
// invocation; for cluster-sim the mean of the queries' virtual p50
// latency) and fail_ratio are printed but not in the result line: the
// first is deterministic per seed, the second is 0 at a correct commit,
// and the result line carries only host-measured figures that are never
// 0. Failures reach the result line as failed over attempted instead.
//
// # Per-layer metrics
//
// The traced run sets up once untraced and once traced, then runs three
// phases of a third of --seconds each: untraced through the scheduler,
// traced through the scheduler, and traced direct (Wasp.Run or
// FileServer.Serve, or for cluster-sim one virtual batch), each over
// the same sequence. Spans start and end at each call the benchmark
// makes into a layer; the program itself carries no trace points. The
// spans of one request share an id and are written to
// .bench_build/spans-<workload>-<seed>.jsonl at exit. Self time is a
// span's duration minus its children's. Counters come from the
// runtime's and scheduler's obs.Registry, as deltas over the traced
// phase. The table prints the traced-minus-untraced difference of every
// end-to-end metric as the tracing overhead. The result line carries
// the per-layer metrics that layerDefs marks json.
//
// Each per-layer metric and the end-to-end metric it should move
// (layerDefs holds the same map):
//
//   - sched.submit_us, sched.parallel_eff → throughput_rps, fanout-tiny
//   - sched.dispatch_us, wasp.run_us, cpu.ns_per_instr,
//     cpu.retired_per_run → lat_p50_us, http-warm and udf-tenants
//     (ns_per_instr should not move on fanout-tiny)
//   - sched.peak_queue_depth → lat_p90_us
//   - sched.vbatch_ns_per_ticket, serverless.epoch_ns_per_ticket,
//     serverless.scale_events, serverless.epochs → throughput_rps,
//     cluster-sim; serverless.tracegen_ms → setup_s, cluster-sim
//   - wasp.cow_reset_ratio, wasp.restore_ratio, wasp.boot_ratio,
//     wasp.cow_pages_per_run, hypercall.exits_per_run,
//     hypercall.handler_us → lat_p50_us, udf-tenants
//   - cpu.jit_compiles_per_run, cpu.jit_deopts_per_run → lat_p50_us
//     and lat_p90_us, udf-tenants
//   - wasp.pool_shells, wasp.pool_dropped → throughput_rps,
//     fanout-tiny; wasp.clean_enqueued, wasp.clean_inline_reclaims,
//     wasp.clean_dropped → lat_p90_us, udf-tenants
//   - wasp.forest_store_mb, wasp.forest_dedup_hits, wasp.code_merges →
//     live_heap_mb and setup_s, udf-tenants; vcc.compile_ms → setup_s
//   - hypercall.denied counts class (d) kills and guards failed
//   - host.calib_ns is report-only
//
// # Measured hazards
//
//   - No open-loop pacing with time.Sleep: at 1,000 req/s the timer ran
//     ~400 µs late at the median and ~15 ms at worst, so it measured the
//     timer. Arrival-rate behaviour is covered by cluster-sim in virtual
//     time instead.
//   - One request outstanding: two clients on two workers gave no more
//     throughput, doubled p50 and made runs bimodal.
//   - Whole passes of a fixed sequence, not a fixed duration of random
//     requests, so the work of a run repeats.
//   - p90, not p99, is gated: p99 did not repeat within a tenth.
//   - Throughput per second swung ±20% within one process while pooled
//     percentiles over a run held within a few percent, so every figure
//     is pooled over the whole timed phase.
//   - The host drifts with its neighbours' load: on the same 2-vCPU Xeon,
//     two sets of ten 20 s runs of the same code a quarter of an hour
//     apart moved 7–12% in median,
//     and within one set the quartile spread of a host-time metric
//     reached 14% of its median. The host-time metrics' bounds in
//     BENCHMARK.json are 0.25 for that reason; allocation and heap
//     figures repeat within 2%.
//   - Inputs are stratified so a pass costs the same whatever the seed:
//     the file sizes and per-file request counts of http-warm are
//     fixed, and udf-tenants draws its Zipf tenants one per stratum.
//
// # Known defect
//
// Under COW resets, wasp.Result.IOExits and Entries accumulate across
// the runs of a parked context: five consecutive http-warm runs report
// 8, 15, 22, 29 and 36 exits. The benchmark therefore counts hypercall
// exits with its own RunConfig.Handler (countingHandler) and does not
// read IOExits; the runtime is left as it is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// A run sets its workload up at least setupMinReps times and until
// setupMinTime has gone into set-up, at most setupMaxReps times;
// setup_s is the median. Cheap set-ups take milliseconds, and only many
// repetitions make their median repeat between runs.
const (
	setupMinReps = 5
	setupMaxReps = 51
	setupMinTime = time.Second
)

// metric is one figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	h := fingerprint()
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s host.calib_ns=%.0f\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CalibNs)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = untraced(wl, *seed, d, out)
	} else {
		res, err = traced(wl, *seed, d, *outDir, h, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload from a collected heap, at least minReps
// times and until minTime has gone into set-up (at most setupMaxReps
// times), and keeps the last instance; it returns the median set-up
// time.
func setUp(wl workload, seed uint64, minReps int, minTime time.Duration, sp *spans) (bench, float64, error) {
	var b bench
	var ts []float64
	var spent time.Duration
	for r := 0; r < setupMaxReps && (r < minReps || spent < minTime); r++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := wl.setup(seed, sp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		ts = append(ts, d.Seconds())
		b = nb
	}
	return b, median(ts), nil
}

// e2e is one timed phase's end-to-end figures.
type e2e struct {
	p50, p90, thr, alloc, heap, setup, virt float64
}

func e2eOf(p *phase, heap, setup float64) e2e {
	return e2e{
		p50:   p.p50,
		p90:   p.p90,
		thr:   p.throughput(),
		alloc: p.allocKBPerReq(),
		heap:  heap,
		setup: setup,
		virt:  p.virtMean(),
	}
}

// e2eDefs are the gated end-to-end metrics, in print order.
var e2eDefs = []struct {
	name, unit string
	get        func(e2e) float64
}{
	{"lat_p50_us", "us", func(e e2e) float64 { return e.p50 }},
	{"lat_p90_us", "us", func(e e2e) float64 { return e.p90 }},
	{"throughput_rps", "1/s", func(e e2e) float64 { return e.thr }},
	{"alloc_kb_per_req", "KiB", func(e e2e) float64 { return e.alloc }},
	{"live_heap_mb", "MiB", func(e e2e) float64 { return e.heap }},
	{"setup_s", "s", func(e e2e) float64 { return e.setup }},
}

// tally adds up what every checked request and the final verify saw.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) phase(p *phase) {
	t.attempted += p.attempted
	t.failed += p.failed
	if t.first == nil {
		t.first = p.firstErr
	}
}

func (t *tally) verify(b bench) {
	n, f, err := b.verify()
	t.attempted += n
	t.failed += f
	if t.first == nil {
		t.first = err
	}
}

func (t *tally) result(out io.Writer, metrics map[string]metric) *result {
	ratio := 0.0
	if t.attempted > 0 {
		ratio = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(out, "fail_ratio %.6f (%d of %d requests)\n", ratio, t.failed, t.attempted)
	if t.first != nil {
		fmt.Fprintf(out, "first unexpected outcome: %v\n", t.first)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func untraced(wl workload, seed uint64, d time.Duration, out io.Writer) (*result, error) {
	b, setupS, err := setUp(wl, seed, setupMinReps, setupMinTime, nil)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var t tally
	t.phase(runPhase(b, 0, false, nil)) // warm-up pass, checked but not timed
	p := runPhase(b, d, false, nil)
	t.phase(p)
	t.verify(b)
	tp, tv, beyond, tailOK := tailPercentile(p.lat)
	samples := len(p.lat)
	p.lat = nil
	e := e2eOf(p, liveHeapMB(), setupS)
	runtime.KeepAlive(b)

	fmt.Fprintf(out, "sequence: %s; %d requests timed over %.2fs (unit: %s)\n",
		b.describe(), p.attempted, p.elapsed.Seconds(), wl.unit)
	metrics := map[string]metric{}
	fmt.Fprintf(out, "%-18s %14s %s\n", "end-to-end metric", "value", "unit")
	for _, m := range e2eDefs {
		v := m.get(e)
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-18s %14.4f %s\n", m.name, v, m.unit)
	}
	if tailOK {
		fmt.Fprintf(out, "%-18s %14.4f us (p%g, %d of %d samples beyond; not gated)\n", "lat_tail_us", tv, tp, beyond, samples)
	}
	fmt.Fprintf(out, "%-18s %14.4f us (deterministic per seed; not gated)\n", "virt_mean_us", e.virt)
	return t.result(out, metrics), nil
}

// registryLayers are the per-layer counters read from obs.Registry as
// deltas over the traced phase, per completed ticket.
var registryLayers = []struct{ layer, reg string }{
	{"wasp.pool_dropped", "wasp_pool_dropped"},
	{"wasp.clean_enqueued", "wasp_clean_enqueued"},
	{"wasp.clean_inline_reclaims", "wasp_clean_inline_reclaims"},
	{"wasp.clean_dropped", "wasp_clean_dropped"},
	{"wasp.forest_dedup_hits", "wasp_forest_dedup_hits"},
	{"wasp.code_merges", "wasp_code_merges"},
}

func traced(wl workload, seed uint64, d time.Duration, outDir string, h host, out io.Writer) (*result, error) {
	b, setupU, err := setUp(wl, seed, 1, 0, nil)
	if err != nil {
		return nil, err
	}
	b.close()
	sp := newSpans()
	b, setupT, err := setUp(wl, seed, 1, 0, sp)
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr := &tracedRun{setup: sp.summary(0), workers: runtime.NumCPU()}

	var t tally
	t.phase(runPhase(b, 0, false, nil))
	third := d / 3
	u := runPhase(b, third, false, nil)
	t.phase(u)
	u.lat = nil
	eu := e2eOf(u, liveHeapMB(), setupU)

	*b.stats() = runStats{}
	reg0 := registryTotals(b.registry())
	mark := len(sp.list)
	tr.schedPh = runPhase(b, third, false, sp)
	t.phase(tr.schedPh)
	tr.schedPh.lat = nil
	et := e2eOf(tr.schedPh, liveHeapMB(), setupT)
	reg1 := registryTotals(b.registry())
	tr.sched = sp.summary(mark)

	mark = len(sp.list)
	tr.directPh = runPhase(b, third, true, sp)
	t.phase(tr.directPh)
	tr.direct = sp.summary(mark)
	t.verify(b)

	lt := newLayerTable()
	lt.set("host.calib_ns", h.CalibNs, "64 SHA-256 hashes of 16 KiB, median of 7")
	if reg1 != nil {
		units := float64(tr.schedPh.units)
		for _, r := range registryLayers {
			lt.set(r.layer, (reg1[r.reg]-reg0[r.reg])/units, "registry delta over the traced phase, per ticket")
		}
		lt.set("wasp.pool_shells", reg1["wasp_pool_total"], "parked after the traced phase")
		lt.set("wasp.forest_store_mb", reg1["wasp_forest_store_bytes"]/(1<<20), "page store after the traced phase")
		lt.set("sched.peak_queue_depth", reg1["sched_queue_depth_peak"], "lifetime peak")
	}
	b.extra(lt, tr)

	fmt.Fprintf(out, "sequence: %s; phases of %.2fs: untraced %d, traced %d, direct %d requests (unit: %s)\n",
		b.describe(), third.Seconds(), u.attempted, tr.schedPh.attempted, tr.directPh.attempted, wl.unit)
	lt.print(out)
	fmt.Fprintf(out, "\n%-28s %8s %12s %12s %8s\n", "span (self time)", "count", "mean_us", "self_us", "self%")
	for _, phase := range []map[string]*layerTime{tr.sched, tr.direct} {
		var root time.Duration
		for _, l := range phase {
			if l.Name == "request" || l.Name == "direct" {
				root = l.Total
			}
		}
		for _, l := range sortedLayers(phase) {
			fmt.Fprintf(out, "%-28s %8d %12.3f %12.3f %8.1f\n", l.Name, l.N,
				l.mean().Seconds()*1e6, l.Self.Seconds()*1e6/float64(l.N), 100*l.Self.Seconds()/root.Seconds())
		}
	}
	fmt.Fprintf(out, "\n%-18s %14s %14s %14s\n", "tracing overhead", "untraced", "traced", "difference")
	for _, m := range e2eDefs {
		fmt.Fprintf(out, "%-18s %14.4f %14.4f %+14.4f %s\n", m.name, m.get(eu), m.get(et), m.get(et)-m.get(eu), m.unit)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(sp.list), path)
	return t.result(out, lt.jsonMetrics()), nil
}

// registryTotals sums each registry metric over its platform labels;
// nil for a workload whose runtime is not kept.
func registryTotals(r *obs.Registry) map[string]float64 {
	if r == nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range r.Snapshot() {
		base, _, _ := strings.Cut(m.Name, "{")
		out[base] += m.Value
	}
	return out
}

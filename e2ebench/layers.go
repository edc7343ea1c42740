package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// layerDef is one per-layer metric and the end-to-end metric it should
// move. json marks the metrics the result line carries: counts and
// ratios, which are truly 0 where a workload does no such work, and the
// times every workload measures. A time some workload cannot measure
// is printed in the table only, so the result line never carries a
// placeholder time.
type layerDef struct {
	name, unit string
	json       bool
	moves      string
}

var layerDefs = []layerDef{
	{"sched.submit_us", "us", true, "throughput_rps on fanout-tiny"},
	{"sched.dispatch_us", "us", false, "lat_p50_us on http-warm, udf-tenants"},
	{"sched.parallel_eff", "ratio", false, "throughput_rps on fanout-tiny"},
	{"sched.peak_queue_depth", "count", true, "lat_p90_us"},
	{"sched.vbatch_ns_per_ticket", "ns", false, "throughput_rps on cluster-sim"},
	{"serverless.epoch_ns_per_ticket", "ns", false, "throughput_rps on cluster-sim"},
	{"serverless.tracegen_ms", "ms", false, "setup_s, lat_p50_us on cluster-sim"},
	{"serverless.scale_events", "count", true, "throughput_rps on cluster-sim"},
	{"serverless.epochs", "count", true, "throughput_rps on cluster-sim"},
	{"wasp.run_us", "us", false, "lat_p50_us on http-warm, udf-tenants"},
	{"wasp.cow_reset_ratio", "ratio", true, "lat_p50_us on udf-tenants"},
	{"wasp.restore_ratio", "ratio", true, "lat_p50_us on udf-tenants"},
	{"wasp.boot_ratio", "ratio", true, "lat_p50_us on udf-tenants"},
	{"wasp.cow_pages_per_run", "count", true, "lat_p50_us on udf-tenants"},
	{"wasp.pool_shells", "count", true, "throughput_rps on fanout-tiny"},
	{"wasp.pool_dropped", "count/run", true, "throughput_rps on fanout-tiny"},
	{"wasp.clean_enqueued", "count/run", true, "lat_p90_us on udf-tenants"},
	{"wasp.clean_inline_reclaims", "count/run", true, "lat_p90_us on udf-tenants"},
	{"wasp.clean_dropped", "count/run", true, "lat_p90_us on udf-tenants"},
	{"wasp.forest_store_mb", "MiB", true, "live_heap_mb, setup_s on udf-tenants"},
	{"wasp.forest_dedup_hits", "count/run", true, "live_heap_mb, setup_s on udf-tenants"},
	{"wasp.code_merges", "count/run", true, "live_heap_mb, setup_s on udf-tenants"},
	{"cpu.ns_per_instr", "ns", false, "lat_p50_us on http-warm, udf-tenants; none on fanout-tiny"},
	{"cpu.retired_per_run", "count", true, "lat_p50_us on http-warm, udf-tenants"},
	{"cpu.jit_compiles_per_run", "count", true, "lat_p50_us, lat_p90_us on udf-tenants"},
	{"cpu.jit_deopts_per_run", "count", true, "lat_p50_us, lat_p90_us on udf-tenants"},
	{"hypercall.exits_per_run", "count", true, "lat_p50_us on udf-tenants"},
	{"hypercall.handler_us", "us", false, "lat_p50_us on udf-tenants"},
	{"hypercall.denied", "count/run", true, "guards fail_ratio on udf-tenants"},
	{"vcc.compile_ms", "ms", false, "setup_s"},
	{"host.calib_ns", "ns", true, "none (report-only host reference)"},
}

type layerRow struct {
	value float64
	note  string
	set   bool
}

// layerTable holds one traced run's per-layer figures, keyed by the
// names in layerDefs.
type layerTable map[string]*layerRow

func newLayerTable() layerTable {
	t := layerTable{}
	for _, d := range layerDefs {
		t[d.name] = &layerRow{note: "not exercised by this workload"}
	}
	return t
}

func (t layerTable) set(name string, v float64, note string) {
	r, ok := t[name]
	if !ok {
		panic("e2ebench: unknown layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note = "no samples"
		return
	}
	r.value, r.note, r.set = v, note, true
}

// na marks a metric the workload exercises but cannot measure from
// outside, with the reason.
func (t layerTable) na(name, reason string) {
	t[name].note = reason
}

func (t layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "%-32s %14s %-10s %s\n", "per-layer metric", "value", "unit", "moves / note")
	for _, d := range layerDefs {
		r := t[d.name]
		if !r.set {
			fmt.Fprintf(w, "%-32s %14s %-10s n/a: %s\n", d.name, "-", d.unit, r.note)
			continue
		}
		note := d.moves
		if r.note != "" {
			note += "; " + r.note
		}
		fmt.Fprintf(w, "%-32s %14.4f %-10s %s\n", d.name, r.value, d.unit, note)
	}
}

// jsonMetrics is the per-layer half of the result line.
func (t layerTable) jsonMetrics() map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs {
		if d.json {
			out[d.name] = metric{Value: t[d.name].value, Unit: d.unit}
		}
	}
	return out
}

// tracedRun is what a traced run hands each workload to fill in its
// per-layer figures: span summaries of set-up, of the scheduled phase
// and of the direct phase, and the two phases themselves.
type tracedRun struct {
	setup, sched, direct map[string]*layerTime
	schedPh, directPh    *phase
	workers              int
}

// perUnitUs is a span's total time per completed ticket of the phase.
func perUnitUs(l *layerTime, p *phase) float64 {
	if l == nil || p.units == 0 {
		return math.NaN()
	}
	return l.Total.Seconds() * 1e6 / float64(p.units)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// guestLayers fills the figures shared by the workloads that run
// guests. runSpan names the direct span, which covers runsPerSpan runs.
// Handler time recorded as "hypercall.handle" spans is taken out of
// cpu.ns_per_instr; when the workload cannot install the counting
// handler, handlerNote says why handler time stays in.
func guestLayers(t layerTable, tr *tracedRun, st *runStats, runSpan string, runsPerSpan int, handlerNote string) {
	sch, dir := tr.schedPh, tr.directPh
	t.set("sched.dispatch_us", (sch.p50-dir.p50)/float64(runsPerSpan),
		fmt.Sprintf("median scheduled request minus median direct request, per run (%d per request)", runsPerSpan))
	t.set("sched.parallel_eff",
		dir.perUnit().Seconds()/(sch.perUnit().Seconds()*float64(tr.workers)),
		fmt.Sprintf("direct %.2fus/ticket vs scheduled %.2fus/ticket on %d workers",
			dir.perUnit().Seconds()*1e6, sch.perUnit().Seconds()*1e6, tr.workers))
	run := tr.direct[runSpan]
	t.set("wasp.run_us", run.medianUs()/float64(runsPerSpan),
		fmt.Sprintf("median direct %s over its %d run(s)", runSpan, runsPerSpan))
	total := st.boots + st.restores + st.cowResets
	t.set("wasp.cow_reset_ratio", ratio(st.cowResets, total), "")
	t.set("wasp.restore_ratio", ratio(st.restores, total), "")
	t.set("wasp.boot_ratio", ratio(st.boots, total), "")
	t.set("wasp.cow_pages_per_run", ratio(st.cowPages, st.cowResets), "over COW resets")
	t.set("cpu.retired_per_run", st.perRun(st.retired), "")
	t.set("cpu.jit_compiles_per_run", st.perRun(st.compiles), "")
	t.set("cpu.jit_deopts_per_run", st.perRun(st.deopts), "")
	if run == nil || st.retired == 0 {
		return
	}
	runs := float64(run.N * runsPerSpan)
	runNs := float64(run.Total.Nanoseconds()) / runs
	note := "mean direct run minus handler time, over retired instructions"
	if handlerNote != "" {
		note = "mean direct run over retired instructions; handler time included: " + handlerNote
	} else if h := tr.direct["hypercall.handle"]; h != nil {
		runNs -= float64(h.Total.Nanoseconds()) / runs
	}
	t.set("cpu.ns_per_instr", runNs/st.perRun(st.retired), note)
}

func durMs(d time.Duration) float64 { return d.Seconds() * 1e3 }

package main

import (
	"fmt"
	"reflect"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

const (
	clusterTraces  = 16  // distinct traces, one per query of a pass
	clusterScale   = 4.0 // ClusterMix rate multiplier
	clusterHorizon = 8 * uint64(cycles.Frequency)
	clusterWorkers = 4 // initial virtual fleet
)

// clusterAdmission is RunCluster's own admission policy, repeated for
// the direct batch so both dispatch the same weighted way.
var clusterAdmission = map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}

type clusterBench struct {
	traces [][]sched.Request
	refs   []*serverless.ClusterReport // first report of each trace
	// Figures of the traced run: the direct batches' peak queue depth,
	// and scale events and epochs summed over the traced queries.
	peakQueue                    int
	scaleEvents, epochs, queries int
}

func clusterPolicy() sched.AutoPolicy {
	const F = uint64(cycles.Frequency)
	return sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256}
}

// clusterSeeds derives the per-query trace seeds from the workload seed.
func clusterSeeds(seed uint64) []uint64 {
	rng := serverless.NewTraceRNG(seed)
	out := make([]uint64, clusterTraces)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func setupCluster(seed uint64, sp *spans) (bench, error) {
	b := &clusterBench{refs: make([]*serverless.ClusterReport, clusterTraces)}
	for _, s := range clusterSeeds(seed) {
		id := sp.begin("serverless.cluster_mix", -1)
		b.traces = append(b.traces, serverless.ClusterMix(s, clusterScale, clusterHorizon))
		sp.end(id)
	}
	return b, nil
}

func (b *clusterBench) size() int { return clusterTraces }

func (b *clusterBench) query(i int) (*serverless.ClusterReport, error) {
	return serverless.RunCluster(wasp.New(), clusterPolicy(), serverless.ClusterConfig{
		InitialWorkers: clusterWorkers,
		Trace:          b.traces[i],
	})
}

// serve runs one query. Its report must equal the first report of the
// same trace; verify checks that first report against a fresh replay.
func (b *clusterBench) serve(i int, sp *spans, parent int) outcome {
	id := sp.begin("serverless.run_cluster", parent)
	rep, err := b.query(i)
	sp.end(id)
	if err != nil {
		return outcome{err: fmt.Errorf("cluster-sim: %w", err)}
	}
	o := outcome{units: rep.Tickets, virt: cycles.Micros(rep.P50Latency), nvirt: 1}
	if rep.Rejected != 0 {
		o.err = fmt.Errorf("cluster-sim: trace %d: %d tickets rejected", i, rep.Rejected)
	}
	if b.refs[i] == nil {
		b.refs[i] = rep
	} else if !reflect.DeepEqual(rep, b.refs[i]) {
		o.err = fmt.Errorf("cluster-sim: trace %d: report %v differs from %v", i, rep, b.refs[i])
	}
	if sp != nil {
		b.scaleEvents += rep.ScaleEvents
		b.epochs += rep.Epochs
		b.queries++
	}
	return o
}

// direct dispatches the same trace as one virtual batch on a fixed
// fleet as wide as the query's peak, without epochs or autoscaling.
func (b *clusterBench) direct(i int, sp *spans, parent int) outcome {
	width := clusterWorkers
	if b.refs[i] != nil {
		width = b.refs[i].PeakWorkers
	}
	id := sp.begin("sched.submit_batch_at", parent)
	s := sched.NewVirtual(wasp.New(), width, sched.WithAdmission(sched.Admission{Weights: clusterAdmission}))
	ts := s.SubmitBatchAt(b.traces[i])
	sp.end(id)
	err := sched.WaitAll(ts...)
	b.peakQueue = max(b.peakQueue, s.PeakQueueDepth())
	s.Close()
	if err != nil {
		return outcome{err: fmt.Errorf("cluster-sim: direct batch: %w", err)}
	}
	return outcome{units: len(ts)}
}

// verify replays every trace once more on a fresh fleet: the report
// must be bit-identical to the one the timed phase saw first.
func (b *clusterBench) verify() (int, int, error) {
	failed := 0
	var first error
	for i, ref := range b.refs {
		if ref == nil {
			continue
		}
		rep, err := b.query(i)
		if err == nil && !reflect.DeepEqual(rep, ref) {
			err = fmt.Errorf("cluster-sim: trace %d: replay %v differs from %v", i, rep, ref)
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return len(b.refs), failed, first
}

func (b *clusterBench) stats() *runStats        { return &runStats{} }
func (b *clusterBench) registry() *obs.Registry { return nil }

func (b *clusterBench) describe() string {
	n := 0
	for _, tr := range b.traces {
		n += len(tr)
	}
	return fmt.Sprintf("%d ClusterMix traces, %d tickets", len(b.traces), n)
}
func (b *clusterBench) close() {}

func (b *clusterBench) extra(t layerTable, tr *tracedRun) {
	vb := tr.direct["sched.submit_batch_at"]
	rc := tr.sched["serverless.run_cluster"]
	t.set("sched.submit_us", perUnitUs(vb, tr.directPh), "NewVirtual plus SubmitBatchAt per ticket (virtual dispatch runs inside it)")
	t.set("sched.peak_queue_depth", float64(b.peakQueue), "direct virtual batch")
	t.set("sched.vbatch_ns_per_ticket", perUnitUs(vb, tr.directPh)*1e3, "one NewVirtual+SubmitBatchAt of the trace at the query's peak width")
	t.set("serverless.epoch_ns_per_ticket", (perUnitUs(rc, tr.schedPh)-perUnitUs(vb, tr.directPh))*1e3,
		"RunCluster per ticket minus the direct batch per ticket")
	t.set("serverless.tracegen_ms", tr.setup["serverless.cluster_mix"].mean().Seconds()*1e3, "one ClusterMix trace")
	if b.queries > 0 {
		t.set("serverless.scale_events", ratio(b.scaleEvents, b.queries), "per query")
		t.set("serverless.epochs", ratio(b.epochs, b.queries), "per query")
	}
}

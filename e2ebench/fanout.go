package main

import (
	"fmt"
	"runtime"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

const (
	fanoutWidth   = 64  // tickets per batch
	fanoutBatches = 256 // batches in one pass
)

// fanoutBench submits batches of a tiny real-mode guest on the default
// runtime: pooled shells, synchronous clean. Its inputs do not depend
// on the seed: every batch is the same 64 tickets.
type fanoutBench struct {
	w       *wasp.Wasp
	sc      *sched.Scheduler
	img     *guest.Image
	retired uint64 // what every run of img must retire
	st      runStats
	reg     *obs.Registry
}

func setupFanout(seed uint64, sp *spans) (bench, error) {
	b := &fanoutBench{img: serverless.PlacementShortImage(), reg: obs.NewRegistry()}
	b.w = wasp.New()
	b.w.Prewarm(b.img.MemBytes(), fanoutWidth)
	res, err := b.w.Run(b.img, wasp.RunConfig{}, cycles.NewClock())
	if err != nil {
		return nil, fmt.Errorf("fanout-tiny: prime: %w", err)
	}
	b.retired = res.Retired
	b.sc = sched.New(b.w, runtime.NumCPU())
	b.w.RegisterMetrics(b.reg)
	b.sc.RegisterMetrics(b.reg)
	return b, nil
}

func (b *fanoutBench) size() int { return fanoutBatches }

func (b *fanoutBench) serve(_ int, sp *spans, parent int) outcome {
	reqs := make([]sched.Request, fanoutWidth)
	for i := range reqs {
		reqs[i] = sched.Request{Img: b.img}
	}
	id := sp.begin("sched.submit_batch", parent)
	ts := b.sc.SubmitBatch(reqs)
	sp.end(id)
	id = sp.begin("sched.wait_all", parent)
	_ = sched.WaitAll(ts...) // each ticket's error is checked below
	sp.end(id)
	o := outcome{}
	for _, t := range ts {
		res, err := t.Wait()
		if err == nil {
			b.st.add(res)
			o.units++
			o.virt += cycles.Micros(res.Cycles)
			o.nvirt++
		}
		if e := b.check(res, err); e != nil && o.err == nil {
			o.err = e
		}
	}
	return o
}

// direct runs the batch's 64 tickets back to back on the generator. One
// span covers the 64 runs: a span per 5 µs run would swamp the trace.
func (b *fanoutBench) direct(_ int, sp *spans, parent int) outcome {
	o := outcome{}
	id := sp.begin("wasp.run_x64", parent)
	defer sp.end(id)
	for i := 0; i < fanoutWidth; i++ {
		res, err := b.w.Run(b.img, wasp.RunConfig{}, cycles.NewClock())
		if err == nil {
			o.units++
			o.virt += cycles.Micros(res.Cycles)
			o.nvirt++
		}
		if e := b.check(res, err); e != nil && o.err == nil {
			o.err = e
		}
	}
	return o
}

// check: the guest halts cleanly after retiring exactly what the
// priming run retired.
func (b *fanoutBench) check(res *wasp.Result, err error) error {
	if err != nil {
		return fmt.Errorf("fanout-tiny: %w", err)
	}
	if res.Retired != b.retired {
		return fmt.Errorf("fanout-tiny: retired %d instructions, want %d", res.Retired, b.retired)
	}
	return nil
}

func (b *fanoutBench) verify() (int, int, error) { return 0, 0, nil }
func (b *fanoutBench) stats() *runStats          { return &b.st }
func (b *fanoutBench) registry() *obs.Registry   { return b.reg }
func (b *fanoutBench) close()                    { b.sc.Close() }

func (b *fanoutBench) describe() string {
	return fmt.Sprintf("%d batches of %d %s tickets", fanoutBatches, fanoutWidth, b.img.Name)
}

func (b *fanoutBench) extra(t layerTable, tr *tracedRun) {
	guestLayers(t, tr, &b.st, "wasp.run_x64", fanoutWidth, "")
	t.set("sched.submit_us", perUnitUs(tr.sched["sched.submit_batch"], tr.schedPh),
		"SubmitBatch per ticket; a 64-ticket burst exceeds the default queue cap, so this includes back-pressure")
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hypercall"
	"repro/internal/serverless"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

func TestSameSeedSameSequence(t *testing.T) {
	f1, h1 := httpInputs(7)
	f2, h2 := httpInputs(7)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(h1, h2) {
		t.Fatal("http-warm: same seed gave different inputs")
	}
	if _, h3 := httpInputs(8); reflect.DeepEqual(h1, h3) {
		t.Fatal("http-warm: different seeds gave the same requests")
	}
	u1, u2 := udfSequence(7), udfSequence(7)
	if !reflect.DeepEqual(u1, u2) || classCounts(u1) != classCounts(u2) {
		t.Fatal("udf-tenants: same seed gave different requests or class counts")
	}
	if reflect.DeepEqual(u1, udfSequence(8)) {
		t.Fatal("udf-tenants: different seeds gave the same requests")
	}
	for c, n := range classCounts(u1) {
		if n == 0 {
			t.Errorf("udf-tenants: class %d never drawn", c)
		}
	}
	if !reflect.DeepEqual(clusterSeeds(7), clusterSeeds(7)) || reflect.DeepEqual(clusterSeeds(7), clusterSeeds(8)) {
		t.Fatal("cluster-sim: trace seeds do not follow the workload seed")
	}
}

func TestZipf(t *testing.T) {
	const n, draws = 64, 200000
	z := newZipf(n, 1)
	if z.draw(0) != 0 || z.draw(math.Nextafter(1, 0)) != n-1 {
		t.Fatal("draw does not cover the ranks end to end")
	}
	if z.draw(z.cdf[0]) != 1 {
		t.Fatal("a uniform on a rank boundary belongs to the next rank")
	}
	var u uint64 = 1
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		u = u*6364136223846793005 + 1442695040888963407
		counts[z.draw(float64(u>>11)/(1<<53))]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{0, 1, 3, 15} {
		want := draws / (float64(k+1) * h)
		if got := float64(counts[k]); math.Abs(got-want) > 0.05*want {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
}

func TestStratifiedZipf(t *testing.T) {
	const n, draws = 64, 4096
	z := newZipf(n, 1)
	a := z.stratified(serverless.NewTraceRNG(1), draws)
	if !reflect.DeepEqual(a, z.stratified(serverless.NewTraceRNG(1), draws)) ||
		reflect.DeepEqual(a, z.stratified(serverless.NewTraceRNG(2), draws)) {
		t.Fatal("stratified draws do not follow the seed")
	}
	counts := make([]int, n)
	for _, k := range a {
		counts[k]++
	}
	prev := 0.0
	for k, c := range z.cdf {
		if want := draws * (c - prev); math.Abs(float64(counts[k])-want) >= 2 {
			t.Errorf("rank %d drawn %d times, want %.1f to within one stratum", k, counts[k], want)
		}
		prev = c
	}
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if got := percentile(seq(100), 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(seq(100), 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(seq(3), 99.9); got != 3 {
		t.Errorf("p99.9 of 1..3 = %v, want 3", got)
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{9999, 99, 99, true}, // p99.9 would leave 9 beyond
		{1000, 99, 10, true},
		{999, 90, 99, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		p, v, beyond, ok := tailPercentile(seq(c.n))
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%v with %d beyond (ok=%v), want p%v with %d (ok=%v)",
				c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
		if ok && v != percentile(seq(c.n), p) {
			t.Errorf("n=%d: value %v is not the p%v", c.n, v, p)
		}
	}
}

// runUDF runs class c once on w with the benchmark's handler.
func runUDF(t *testing.T, w *wasp.Wasp, v *vcc.Virtine, a, b int64) (*wasp.Result, *countingHandler, error) {
	t.Helper()
	h := newCountingHandler(nil)
	res, err := w.Run(v.Image, wasp.RunConfig{
		Policy: v.Policy, Env: h.env, Handler: h,
		Args: vcc.MarshalArgs(a, b), RetBytes: vcc.RetSize, Snapshot: true,
	}, cycles.NewClock())
	return res, h, err
}

func TestUDFsMatchReferences(t *testing.T) {
	vs, err := compileUDFs()
	if err != nil {
		t.Fatal(err)
	}
	w := wasp.New(wasp.WithCOW(true), wasp.WithAsyncClean(true))
	b := &udfBench{tenants: make([]udfTenant, len(udfClasses))}
	for c := range udfClasses {
		b.tenants[c] = udfTenant{img: vs[c].Image, policy: vs[c].Policy, class: c}
	}
	inputs := [][2]int64{{0, 0}, {1, 1}, {99, 3}, {12345, 9}, {19999, 0}, {250, 7}, {999, 998}}
	for c := range udfClasses {
		for _, in := range inputs {
			res, h, err := runUDF(t, w, vs[c], in[0], in[1])
			if err := b.check(udfReq{tenant: c, a: in[0], b: in[1]}, udfCall{res: res, err: err, h: h}); err != nil {
				t.Errorf("class %s%v: %v", udfClasses[c].name, in, err)
			}
		}
	}
	// The check itself must reject a wrong value and a missing denial.
	res, h, err := runUDF(t, w, vs[1], 5, 6)
	res.Ret = vcc.MarshalArgs(udfClasses[1].ref(5, 6) + 1)
	if b.check(udfReq{tenant: 1, a: 5, b: 6}, udfCall{res: res, err: err, h: h}) == nil {
		t.Error("check accepted a wrong return value")
	}
	if b.check(udfReq{tenant: 3}, udfCall{res: res}) == nil {
		t.Error("check accepted a hostile UDF that was not denied")
	}
}

func TestHandlerCountsExits(t *testing.T) {
	vs, err := compileUDFs()
	if err != nil {
		t.Fatal(err)
	}
	w := wasp.New(wasp.WithCOW(true), wasp.WithAsyncClean(true))
	// Restored runs make no snapshot call: exit only for (a) and (b),
	// write then exit for (c). The first run also captures the snapshot.
	for c, want := range []int{1, 1, 2} {
		for run := 0; run < 5; run++ {
			_, h, err := runUDF(t, w, vs[c], 100, 2)
			if err != nil {
				t.Fatal(err)
			}
			if run > 0 && h.calls != want {
				t.Errorf("class %s run %d: %d hypercalls, want %d", udfClasses[c].name, run, h.calls, want)
			}
			if run == 0 && h.calls != want+1 {
				t.Errorf("class %s first run: %d hypercalls, want %d", udfClasses[c].name, h.calls, want+1)
			}
		}
	}
	// A denied write never reaches the handler.
	_, h, err := runUDF(t, w, vs[3], 1, 0)
	if !errors.Is(err, hypercall.ErrDenied) || h.calls > 1 {
		t.Errorf("hostile UDF: err %v after %d handled calls", err, h.calls)
	}
}

// lastLine decodes the result line a run printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

func TestRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		code := run([]string{"--workload", "fanout-tiny", "--seed", "3", "--seconds", "1",
			"--trace", trace, "--out", t.TempDir()}, &out)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %s: %+v", trace, r)
		}
		var want []string
		if trace == "0" {
			for _, m := range e2eDefs {
				want = append(want, m.name)
			}
		} else {
			for _, d := range layerDefs {
				if d.json {
					want = append(want, d.name)
				}
			}
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(r.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("trace %s: metric %s missing", trace, name)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

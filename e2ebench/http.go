package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cycles"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

const (
	httpFiles   = 64   // distinct files served
	httpRepeats = 58   // requests per file in one pass
	httpMisses  = 384  // requests per pass for paths that do not exist
	httpMinSize = 24   // file sizes are log-spaced in [httpMinSize, httpMaxSize]
	httpMaxSize = 7680 // the handler serves files up to 7900 bytes
)

type httpReq struct {
	raw  []byte
	body []byte // nil for a path that must answer 404
}

type httpBench struct {
	w   *wasp.Wasp
	srv *httpd.FileServer
	sc  *sched.Scheduler
	seq []httpReq
	st  runStats
	reg *obs.Registry
}

// httpInputs makes the seeded file set and request sequence. The file
// sizes and the number of requests each file and the missing paths get
// are fixed; the seed picks the contents, which path has which size,
// and the order. Every pass so moves the same bytes whatever the seed,
// and only the order of work differs between seeds.
func httpInputs(seed uint64) (map[string][]byte, []httpReq) {
	rng := serverless.NewTraceRNG(seed)
	sizes := make([]int, httpFiles)
	for i := range sizes {
		sizes[i] = int(httpMinSize * math.Pow(float64(httpMaxSize)/httpMinSize, (float64(i)+0.5)/httpFiles))
	}
	shuffle(rng, len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	files := make(map[string][]byte, httpFiles)
	var seq []httpReq
	for i, size := range sizes {
		body := make([]byte, size)
		for j := range body {
			body[j] = 'a' + byte(rng.Uint64()%26)
		}
		path := fmt.Sprintf("/site/%02d.html", i)
		files[path] = body
		for k := 0; k < httpRepeats; k++ {
			seq = append(seq, httpReq{raw: httpd.Request(path), body: body})
		}
	}
	for k := 0; k < httpMisses; k++ {
		seq = append(seq, httpReq{raw: httpd.Request(fmt.Sprintf("/missing/%d.html", rng.Uint64()%1000))})
	}
	shuffle(rng, len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return files, seq
}

func setupHTTP(seed uint64, sp *spans) (bench, error) {
	files, seq := httpInputs(seed)
	b := &httpBench{seq: seq, reg: obs.NewRegistry()}
	b.w = wasp.New(wasp.WithCOW(true), wasp.WithAsyncClean(true))
	id := sp.begin("httpd.new_file_server", -1)
	srv, err := httpd.NewFileServer(b.w, files)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	srv.Snapshot = true
	b.srv = srv
	b.sc = sched.New(b.w, runtime.NumCPU())
	b.w.RegisterMetrics(b.reg)
	b.sc.RegisterMetrics(b.reg)
	// Prime the handler's snapshot and a parked COW shell.
	for i := 0; i < 4; i++ {
		if o := b.serve(i, nil, -1); o.err != nil {
			b.close()
			return nil, fmt.Errorf("http-warm: prime: %w", o.err)
		}
	}
	b.st = runStats{}
	return b, nil
}

func (b *httpBench) size() int { return len(b.seq) }

func (b *httpBench) serve(i int, sp *spans, parent int) outcome {
	r := &b.seq[i]
	id := sp.begin("httpd.submit", parent)
	t := b.srv.Submit(b.sc, r.raw)
	sp.end(id)
	id = sp.begin("sched.wait", parent)
	resp, err := httpd.ParseTicket(t)
	sp.end(id)
	if err != nil {
		return outcome{err: err}
	}
	res, _ := t.Wait() // already complete; ParseTicket checked its error
	b.st.add(res)
	return outcome{units: 1, virt: cycles.Micros(res.Cycles), nvirt: 1, err: checkHTTP(r, resp)}
}

func (b *httpBench) direct(i int, sp *spans, parent int) outcome {
	r := &b.seq[i]
	id := sp.begin("httpd.serve", parent)
	resp, err := b.srv.Serve(r.raw, cycles.NewClock())
	sp.end(id)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{units: 1, virt: cycles.Micros(resp.Cycles), nvirt: 1, err: checkHTTP(r, resp)}
}

// checkHTTP: an existing file comes back 200 with exactly its bytes, a
// missing path comes back 404.
func checkHTTP(r *httpReq, resp *httpd.Response) error {
	if r.body == nil {
		if resp.Status != 404 {
			return fmt.Errorf("http-warm: missing path answered %d", resp.Status)
		}
		return nil
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, r.body) {
		return fmt.Errorf("http-warm: status %d, body of %d bytes, want 200 with %d bytes",
			resp.Status, len(resp.Body), len(r.body))
	}
	return nil
}

func (b *httpBench) verify() (int, int, error) { return 0, 0, nil }
func (b *httpBench) stats() *runStats          { return &b.st }
func (b *httpBench) registry() *obs.Registry   { return b.reg }
func (b *httpBench) close()                    { b.sc.Close() }

func (b *httpBench) describe() string {
	miss := 0
	for _, r := range b.seq {
		if r.body == nil {
			miss++
		}
	}
	return fmt.Sprintf("%d requests over %d files, %d for missing paths", len(b.seq), httpFiles, miss)
}

func (b *httpBench) extra(t layerTable, tr *tracedRun) {
	guestLayers(t, tr, &b.st, "httpd.serve", 1, "FileServer takes no RunConfig.Handler")
	t.set("sched.submit_us", perUnitUs(tr.sched["httpd.submit"], tr.schedPh),
		"FileServer.Submit: env fork plus Scheduler.Submit")
	t.set("vcc.compile_ms", durMs(tr.setup["httpd.new_file_server"].total()),
		"httpd.NewFileServer: vcc compile plus installing the file set")
	t.na("hypercall.exits_per_run", "FileServer takes no RunConfig.Handler, and Result.IOExits accumulates under COW")
	t.na("hypercall.handler_us", "FileServer takes no RunConfig.Handler")
}

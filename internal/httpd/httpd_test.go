package httpd

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hypercall"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/vcc"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

func TestEchoServer(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	req := []byte("GET / HTTP/1.0\r\n\r\n")
	env.NetIn = append([]byte(nil), req...)
	res, err := w.Run(EchoImage(), wasp.RunConfig{
		Policy: EchoPolicy(),
		Env:    env,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.NetOut, req) {
		t.Fatalf("echo = %q, want %q", res.NetOut, req)
	}
}

func TestEchoMilestonesOrdered(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	env.NetIn = []byte("ping")
	res, err := w.Run(EchoImage(), wasp.RunConfig{Policy: EchoPolicy(), Env: env}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marks) != 3 {
		t.Fatalf("marks = %d, want 3", len(res.Marks))
	}
	var entry, recvDone, sendDone uint64
	for _, m := range res.Marks {
		switch m.ID {
		case MarkMainEntry:
			entry = m.Cycle
		case MarkRecvDone:
			recvDone = m.Cycle
		case MarkSendDone:
			sendDone = m.Cycle
		}
	}
	if entry == 0 || recvDone <= entry || sendDone <= recvDone {
		t.Fatalf("milestones out of order: %d %d %d", entry, recvDone, sendDone)
	}
	// Fig 4's claim: main entry is reached in roughly 10K cycles
	// (protected-mode boot, no paging), and the full exchange stays
	// well under 1 ms (§4.2: sub-millisecond response latencies).
	if entry < 5_000 || entry > 25_000 {
		t.Fatalf("main entry at %d cycles, want ≈10K (Fig 4)", entry)
	}
	if ms := cycles.Millis(sendDone); ms >= 1.0 {
		t.Fatalf("response took %.2f ms, want <1ms", ms)
	}
}

func TestEchoDefaultDenyBlocksSockets(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	env.NetIn = []byte("x")
	_, err := w.Run(EchoImage(), wasp.RunConfig{Env: env}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want denial", err)
	}
}

func testFiles() map[string][]byte {
	return map[string][]byte{
		"/index.html": []byte("<html>hello virtines</html>"),
		"/big.bin":    bytes.Repeat([]byte("x"), 4096),
	}
}

func TestFileServerServes(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if string(resp.Body) != "<html>hello virtines</html>" {
		t.Fatalf("body = %q", resp.Body)
	}
	// §6.3: seven host interactions per request (recv, stat, open,
	// read, send, close, exit) plus the crt0 snapshot mechanism call.
	if resp.Exits != 8 {
		t.Fatalf("hypercall exits = %d, want 8", resp.Exits)
	}
	// With snapshotting on, later runs resume past the snapshot call
	// and make exactly the paper's seven.
	s.Snapshot = true
	if _, err := s.Serve(Request("/index.html"), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exits != 7 {
		t.Fatalf("warm hypercall exits = %d, want 7", warm.Exits)
	}
}

// Under COW resets a parked shell serves request after request; each
// response must still count only its own request's hypercall exits.
func TestFileServerExitsUnderCOW(t *testing.T) {
	s, err := NewFileServer(wasp.New(wasp.WithCOW(true)), testFiles())
	if err != nil {
		t.Fatal(err)
	}
	s.Snapshot = true
	for i, want := range []uint64{8, 7, 7, 7, 7} {
		resp, err := s.Serve(Request("/index.html"), cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Exits != want {
			t.Fatalf("request %d: status %d, exits %d; want 200, %d", i, resp.Status, resp.Exits, want)
		}
	}
}

func TestFileServer404(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/missing"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestFileServerLargeFile(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/big.bin"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 4096 {
		t.Fatalf("status=%d len=%d", resp.Status, len(resp.Body))
	}
}

func TestNativeMatchesVirtine(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNativeFileServer(testFiles())
	vresp, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	nresp, err := n.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vresp.Raw, nresp.Raw) {
		t.Fatalf("virtine and native responses differ:\n%q\n%q", vresp.Raw, nresp.Raw)
	}
}

func TestFig13Shape(t *testing.T) {
	// Structural claims of Fig 13: native is fastest; virtine without
	// snapshot is slowest; snapshotting recovers much of the gap but
	// host interactions keep it above native.
	files := testFiles()
	req := Request("/index.html")

	serve := func(snapshot bool) uint64 {
		w := wasp.New()
		s, err := NewFileServer(w, files)
		if err != nil {
			t.Fatal(err)
		}
		s.Snapshot = snapshot
		// Warm pool and snapshot.
		if _, err := s.Serve(req, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		clk := cycles.NewClock()
		const N = 20
		for i := 0; i < N; i++ {
			if _, err := s.Serve(req, clk); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() / N
	}
	nsrv := NewNativeFileServer(files)
	nclk := cycles.NewClock()
	const N = 20
	for i := 0; i < N; i++ {
		if _, err := nsrv.Serve(req, nclk); err != nil {
			t.Fatal(err)
		}
	}
	native := nclk.Now() / N
	virt := serve(false)
	snap := serve(true)

	if !(native < snap && snap < virt) {
		t.Fatalf("ordering wrong: native=%d snapshot=%d virtine=%d", native, snap, virt)
	}
	// Paper: a bit more than 2x latency increase for virtines vs native;
	// accept a 1.5-6x band.
	ratio := float64(virt) / float64(native)
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("virtine/native latency ratio = %.2f, want ≈2-3", ratio)
	}
}

func TestServeManyConcurrent(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	s.Snapshot = true
	// Deploy step: warm the snapshot so concurrent requests restore it.
	if _, err := s.Serve(Request("/index.html"), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	const n = 40
	reqs := make([][]byte, n)
	for i := range reqs {
		if i%3 == 2 {
			reqs[i] = Request("/missing")
		} else {
			reqs[i] = Request("/index.html")
		}
	}
	resps, err := s.ServeMany(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		want := 200
		if i%3 == 2 {
			want = 404
		}
		if resp.Status != want {
			t.Fatalf("request %d: status %d, want %d", i, resp.Status, want)
		}
		if want == 200 && string(resp.Body) != "<html>hello virtines</html>" {
			t.Fatalf("request %d: body %q", i, resp.Body)
		}
	}
}

func TestRequestParseRejectsGarbage(t *testing.T) {
	n := NewNativeFileServer(testFiles())
	if _, err := n.Serve([]byte("garbage"), cycles.NewClock()); err == nil {
		t.Fatal("garbage request accepted")
	}
	if _, err := parseResponse([]byte("junk"), 0, 0); err == nil {
		t.Fatal("junk response parsed")
	}
	if _, err := parseResponse([]byte("HTTP/1.0 xx"), 0, 0); err == nil {
		t.Fatal("bad status parsed")
	}
}

// TestFileServerFailedReadReturns500 is the regression test for the
// guest handler swallowing a failed read: a negative return from
// read() used to be added to the response length, sending a garbled
// partial 200. The handler must answer with a clean 500 instead.
func TestFileServerFailedReadReturns500(t *testing.T) {
	w := wasp.New()
	srv, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	env := srv.newEnv()
	env.NetIn = Request("/index.html")
	// Fail the guest's file read underneath an otherwise healthy host:
	// stat and open succeed, read reports -1 errno-style.
	failRead := hypercall.HandlerFunc(func(call hypercall.Args, mem hypercall.GuestMem) (uint64, error) {
		if call.Nr == hypercall.NrRead && call.A0 != hypercall.SocketFD {
			return ^uint64(0), nil
		}
		return env.Handle(call, mem)
	})
	res, err := w.Run(srv.image, wasp.RunConfig{
		Policy:   srv.policy,
		Env:      env,
		Handler:  failRead,
		Args:     vcc.MarshalArgs(0),
		RetBytes: vcc.RetSize,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := parseResponse(res.NetOut, res.Cycles, res.IOExits)
	if err != nil {
		t.Fatalf("failed read corrupted the response: %v", err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("500 response carries a body: %q", resp.Body)
	}
	if bytes.Contains(res.NetOut, []byte("200 OK")) {
		t.Fatalf("partial 200 leaked into the wire bytes: %q", res.NetOut)
	}
}

// TestServeTenants drives the multi-tenant path: per-tenant image
// clones under one weighted-admission scheduler, every tenant's
// requests answered correctly and in order.
func TestServeTenants(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	s.Snapshot = true
	tenants := map[string][][]byte{}
	for _, name := range []string{"hot", "cold-a", "cold-b"} {
		n := 3
		if name == "hot" {
			n = 12
		}
		for i := 0; i < n; i++ {
			req := Request("/index.html")
			if i%3 == 2 {
				req = Request("/missing")
			}
			tenants[name] = append(tenants[name], req)
		}
	}
	out, err := s.ServeTenants(tenants, 4, &sched.Admission{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, reqs := range tenants {
		if len(out[name]) != len(reqs) {
			t.Fatalf("%s: %d responses for %d requests", name, len(out[name]), len(reqs))
		}
		for i, resp := range out[name] {
			if resp == nil {
				t.Fatalf("%s request %d: missing response", name, i)
			}
			want := 200
			if i%3 == 2 {
				want = 404
			}
			if resp.Status != want {
				t.Fatalf("%s request %d: status %d, want %d", name, i, resp.Status, want)
			}
		}
	}
}

// TestServeTenantsHardCapRejects: a tenant over its hard quota in
// RejectOverflow mode gets nil response slots, and the other tenants
// are unaffected.
func TestServeTenantsHardCapRejects(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string][][]byte{}
	for i := 0; i < 24; i++ {
		tenants["hog"] = append(tenants["hog"], Request("/index.html"))
	}
	tenants["quiet"] = [][]byte{Request("/index.html")}
	out, err := s.ServeTenants(tenants, 2, &sched.Admission{MaxInFlight: 2, RejectOverflow: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["quiet"][0] == nil || out["quiet"][0].Status != 200 {
		t.Fatalf("quiet tenant response = %+v", out["quiet"][0])
	}
	served, rejected := 0, 0
	for _, resp := range out["hog"] {
		if resp == nil {
			rejected++
		} else {
			served++
			if resp.Status != 200 {
				t.Fatalf("served hog response status %d", resp.Status)
			}
		}
	}
	if served == 0 {
		t.Fatal("hard cap served nothing for the hog tenant")
	}
	if rejected == 0 {
		t.Fatal("hard cap in reject mode rejected nothing despite a 24-deep burst over cap 2")
	}
}

// TestServeTenantsPlaced: on a runtime spanning KVM and Hyper-V, a
// Static placer pins tenants to opposite backends; both are answered
// correctly, shells never cross platforms (each backend's pool warms),
// and a tenant pinned outside the fleet comes back as nil slots.
func TestServeTenantsPlaced(t *testing.T) {
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string][][]byte{}
	for _, name := range []string{"on-kvm", "on-hv", "nowhere"} {
		for i := 0; i < 4; i++ {
			tenants[name] = append(tenants[name], Request("/index.html"))
		}
	}
	pl := placement.Static{Pins: map[string]string{
		s.image.Name + "@on-kvm":  "kvm",
		s.image.Name + "@on-hv":   "hyper-v",
		s.image.Name + "@nowhere": "xen",
	}}
	out, err := s.ServeTenants(tenants, 4, &sched.Admission{}, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"on-kvm", "on-hv"} {
		for i, resp := range out[name] {
			if resp == nil || resp.Status != 200 {
				t.Fatalf("%s request %d: response %+v, want 200", name, i, resp)
			}
		}
	}
	for i, resp := range out["nowhere"] {
		if resp != nil {
			t.Fatalf("unplaceable tenant request %d got a response: %+v", i, resp)
		}
	}
	if w.PoolTotalOn("kvm") == 0 || w.PoolTotalOn("hyper-v") == 0 {
		t.Fatalf("both backends should hold warm shells after the split run (kvm=%d hv=%d)",
			w.PoolTotalOn("kvm"), w.PoolTotalOn("hyper-v"))
	}
}

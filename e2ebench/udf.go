package main

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

const (
	udfTenants  = 1024 // tenant clones of the four UDFs
	udfRequests = 4096 // requests in the seeded sequence
	udfZipfS    = 1.0  // Zipf exponent of the tenant draw
)

// udfSrc holds the four UDF classes. The class (a) scorer is the
// examples/udf UDF: its stores to the weights global dirty the page its
// code shares, so every call re-decodes and re-compiles its traces.
// Class (b) is arithmetic over locals only. Class (c) may make one
// write hypercall (virtine_config bit 1). Class (d) makes the same
// write under the default-deny policy and is killed.
const udfSrc = `
int weights[4];

virtine int score_row(int balance, int overdrafts) {
	weights[0] = 2;
	weights[1] = 7;
	char scratch[16];
	int i = 0;
	char *p = scratch;
	for (i = 0; i < 16; i++) { *(p + i) = i; }
	int score = overdrafts * weights[1] - balance / 100 * weights[0];
	if (score < 0) score = 0;
	return score;
}

virtine int blend(int x, int y) {
	int acc = 0;
	for (int i = 1; i <= 16; i++) {
		acc = acc + (x * i) % 97 - y % (i + 3);
	}
	return acc;
}

virtine_config(0x02) int audit(int id, int amount) {
	char msg[32];
	char *tag = "audit ";
	int n = strlen(tag);
	memcpy(msg, tag, n);
	n = n + itoa(id, msg + n);
	msg[n] = 10;
	n++;
	write(1, msg, n);
	return amount * 3 + id % 11;
}

virtine int exfil(int x) {
	write(1, "stolen row!", 11);
	return x;
}
`

// udfClass is one UDF with its Go reference implementation.
type udfClass struct {
	fn   string
	name string
	// ref is the expected return value; nil means the call must be
	// denied by policy.
	ref func(a, b int64) int64
	// stdout is the expected captured output.
	stdout func(a, b int64) string
	// args draws the class's two arguments.
	args func(rng *serverless.TraceRNG) (int64, int64)
}

var udfClasses = []udfClass{
	{fn: "score_row", name: "a-globals",
		ref: func(balance, overdrafts int64) int64 {
			return max(overdrafts*7-balance/100*2, 0)
		},
		args: func(rng *serverless.TraceRNG) (int64, int64) {
			return int64(rng.Uint64() % 20000), int64(rng.Uint64() % 10)
		}},
	{fn: "blend", name: "b-locals",
		ref: func(x, y int64) int64 {
			var acc int64
			for i := int64(1); i <= 16; i++ {
				acc += (x*i)%97 - y%(i+3)
			}
			return acc
		},
		args: func(rng *serverless.TraceRNG) (int64, int64) {
			return int64(rng.Uint64() % 1000), int64(rng.Uint64() % 1000)
		}},
	{fn: "audit", name: "c-audit",
		ref:    func(id, amount int64) int64 { return amount*3 + id%11 },
		stdout: func(id, _ int64) string { return fmt.Sprintf("audit %d\n", id) },
		args: func(rng *serverless.TraceRNG) (int64, int64) {
			return int64(rng.Uint64() % 100000), int64(rng.Uint64() % 10000)
		}},
	{fn: "exfil", name: "d-hostile",
		args: func(rng *serverless.TraceRNG) (int64, int64) {
			return int64(rng.Uint64() % 1000), 0
		}},
}

// udfAuditClass is the index of class (c) in udfClasses.
const udfAuditClass = 2

// Tenant t runs class t%4, so the Zipf ranks interleave the classes and
// every seed sees the same class shares in expectation.
type udfTenant struct {
	img    *guest.Image
	policy hypercall.Policy
	class  int
}

type udfReq struct {
	tenant int
	a, b   int64
}

type udfBench struct {
	w       *wasp.Wasp
	sc      *sched.Scheduler
	tenants []udfTenant
	seq     []udfReq
	st      runStats
	reg     *obs.Registry
}

// udfSequence draws the seeded request sequence: a stratified Zipf
// draw of tenants, then each request's class arguments.
func udfSequence(seed uint64) []udfReq {
	rng := serverless.NewTraceRNG(seed)
	tenants := newZipf(udfTenants, udfZipfS).stratified(rng, udfRequests)
	seq := make([]udfReq, udfRequests)
	for i, t := range tenants {
		a, b := udfClasses[t%len(udfClasses)].args(rng)
		seq[i] = udfReq{tenant: t, a: a, b: b}
	}
	return seq
}

// compileUDFs compiles the four classes into one program.
func compileUDFs() ([]*vcc.Virtine, error) {
	prog, err := vcc.Compile(udfSrc)
	if err != nil {
		return nil, fmt.Errorf("udf-tenants: compile: %w", err)
	}
	vs := make([]*vcc.Virtine, len(udfClasses))
	for i, c := range udfClasses {
		if vs[i] = prog.Virtines[c.fn]; vs[i] == nil {
			return nil, fmt.Errorf("udf-tenants: no virtine %s", c.fn)
		}
	}
	return vs, nil
}

func setupUDF(seed uint64, sp *spans) (bench, error) {
	b := &udfBench{seq: udfSequence(seed), reg: obs.NewRegistry()}
	id := sp.begin("vcc.compile", -1)
	vs, err := compileUDFs()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	b.w = wasp.New(wasp.WithCOW(true), wasp.WithAsyncClean(true))
	b.tenants = make([]udfTenant, udfTenants)
	for t := range b.tenants {
		c := t % len(udfClasses)
		b.tenants[t] = udfTenant{
			img:    vs[c].Image.WithName(fmt.Sprintf("tenant-%04d-%s", t, udfClasses[c].name)),
			policy: vs[c].Policy,
			class:  c,
		}
	}
	// Prime every tenant: boot, capture its snapshot, park its shell.
	id = sp.begin("udf.prime", -1)
	for t := range b.tenants {
		if err := b.check(udfReq{tenant: t}, b.runDirect(udfReq{tenant: t}, nil, -1)); err != nil {
			sp.end(id)
			return nil, fmt.Errorf("udf-tenants: prime tenant %d: %w", t, err)
		}
	}
	sp.end(id)
	b.sc = sched.New(b.w, runtime.NumCPU())
	b.w.RegisterMetrics(b.reg)
	b.sc.RegisterMetrics(b.reg)
	b.st = runStats{}
	return b, nil
}

// udfCall is one UDF invocation's result as the check sees it.
type udfCall struct {
	res *wasp.Result
	err error
	h   *countingHandler
}

func (b *udfBench) config(r udfReq, sp *spans) (wasp.RunConfig, *countingHandler) {
	t := &b.tenants[r.tenant]
	h := newCountingHandler(sp)
	return wasp.RunConfig{
		Policy:   t.policy,
		Env:      h.env,
		Handler:  h,
		Args:     vcc.MarshalArgs(r.a, r.b),
		RetBytes: vcc.RetSize,
		Snapshot: true,
	}, h
}

func (b *udfBench) runDirect(r udfReq, sp *spans, parent int) udfCall {
	id := sp.begin("wasp.run", parent)
	cfg, h := b.config(r, sp)
	res, err := b.w.Run(b.tenants[r.tenant].img, cfg, cycles.NewClock())
	sp.addCalls(h, id)
	sp.end(id)
	return udfCall{res: res, err: err, h: h}
}

// check compares a call with its class's Go reference. Class (d) must
// fail with ErrDenied; any other error is unexpected.
func (b *udfBench) check(r udfReq, c udfCall) error {
	cl := &udfClasses[b.tenants[r.tenant].class]
	if cl.ref == nil {
		if !errors.Is(c.err, hypercall.ErrDenied) {
			return fmt.Errorf("udf-tenants: %s returned %v, want ErrDenied", cl.name, c.err)
		}
		return nil
	}
	if c.err != nil {
		return fmt.Errorf("udf-tenants: %s: %w", cl.name, c.err)
	}
	if got, want := vcc.UnmarshalRet(c.res.Ret), cl.ref(r.a, r.b); got != want {
		return fmt.Errorf("udf-tenants: %s(%d, %d) = %d, want %d", cl.name, r.a, r.b, got, want)
	}
	want := ""
	if cl.stdout != nil {
		want = cl.stdout(r.a, r.b)
	}
	if string(c.res.Stdout) != want {
		return fmt.Errorf("udf-tenants: %s wrote %q, want %q", cl.name, c.res.Stdout, want)
	}
	return nil
}

func (b *udfBench) size() int { return len(b.seq) }

func (b *udfBench) serve(i int, sp *spans, parent int) outcome {
	r := b.seq[i]
	cfg, h := b.config(r, sp)
	id := sp.begin("sched.submit", parent)
	t := b.sc.Submit(b.tenants[r.tenant].img, cfg)
	sp.end(id)
	id = sp.begin("sched.wait", parent)
	res, err := t.Wait()
	sp.end(id)
	// The handler may run before Wait is entered, so its calls hang off
	// the request, not the wait.
	sp.addCalls(h, parent)
	return b.record(r, udfCall{res: res, err: err, h: h})
}

func (b *udfBench) direct(i int, sp *spans, parent int) outcome {
	r := b.seq[i]
	c := b.runDirect(r, sp, parent)
	o := outcome{units: 1, err: b.check(r, c)}
	if c.res != nil {
		o.virt, o.nvirt = cycles.Micros(c.res.Cycles), 1
	}
	return o
}

// record checks one scheduled call and adds it to the run statistics.
func (b *udfBench) record(r udfReq, c udfCall) outcome {
	o := outcome{units: 1, err: b.check(r, c)}
	if c.res == nil {
		if o.err == nil {
			b.st.denied++
		}
		return o
	}
	b.st.add(c.res)
	if b.tenants[r.tenant].class == udfAuditClass {
		b.st.auditRuns++
		b.st.auditExits += c.h.calls
		b.st.auditHandler += c.h.spent
	}
	o.virt, o.nvirt = cycles.Micros(c.res.Cycles), 1
	return o
}

func (b *udfBench) verify() (int, int, error) { return 0, 0, nil }
func (b *udfBench) stats() *runStats          { return &b.st }
func (b *udfBench) registry() *obs.Registry   { return b.reg }
func (b *udfBench) close()                    { b.sc.Close() }

func (b *udfBench) describe() string {
	return fmt.Sprintf("%d requests over %d tenants, per class %v", len(b.seq), udfTenants, classCounts(b.seq))
}

// classCounts is how many requests of a sequence each class receives.
func classCounts(seq []udfReq) [4]int {
	var n [4]int
	for _, r := range seq {
		n[r.tenant%len(udfClasses)]++
	}
	return n
}

func (b *udfBench) extra(t layerTable, tr *tracedRun) {
	guestLayers(t, tr, &b.st, "wasp.run", 1, "")
	t.set("sched.submit_us", perUnitUs(tr.sched["sched.submit"], tr.schedPh), "Scheduler.Submit")
	t.set("hypercall.exits_per_run", ratio(b.st.auditExits, b.st.auditRuns), "class (c), counted by the benchmark's handler")
	t.set("hypercall.handler_us", b.st.auditHandler.Seconds()*1e6/float64(b.st.auditRuns), "class (c), per run")
	t.set("hypercall.denied", ratio(b.st.denied, tr.schedPh.units), "class (d) policy kills per run")
	t.set("vcc.compile_ms", durMs(tr.setup["vcc.compile"].total()), "vcc.Compile of the four classes")
}

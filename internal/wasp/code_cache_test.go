package wasp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/vcc"
)

// A hypercall handler that writes into a code page (here: recv filling a
// buffer that overlaps the instruction stream) must flush the decoded
// cache for that page — the guest then executes the received bytes, as
// on real hardware. This is the host-write half of the self-modifying
// code story; vmm.Context.HostWrite carries the invalidation.
func TestHypercallWriteIntoCodePage(t *testing.T) {
	src := guest.WrapLongMode(`
	movi rdi, 3
	movi rsi, patch
	movi rdx, 10
	out 0x07, rax
patch:
	movi rax, 111
	mov rdi, rax
	out 0x00, rdi
	hlt
`)
	img := guest.MustFromAsm("hc-code-write", src)

	// The payload is the encoding of `movi rax, 222`, exactly the size
	// of the instruction it overwrites.
	patch, err := asm.Assemble(".bits 64\n\tmovi rax, 222\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(patch.Code) != 10 {
		t.Fatalf("patch encoding is %d bytes, want 10", len(patch.Code))
	}

	for _, legacy := range []bool{false, true} {
		w := New(WithLegacyInterp(legacy))
		for i := 0; i < 3; i++ { // repeat: later runs adopt cached pages
			env := hypercall.NewEnv()
			env.NetIn = append([]byte(nil), patch.Code...)
			res, err := w.Run(img, RunConfig{
				Policy: hypercall.MaskOf(hypercall.NrRecv),
				Env:    env,
			}, cycles.NewClock())
			if err != nil {
				t.Fatalf("legacy=%v run %d: %v", legacy, i, err)
			}
			if res.ExitCode != 222 {
				t.Fatalf("legacy=%v run %d: exit code %d, want 222 (stale decode executed)",
					legacy, i, res.ExitCode)
			}
		}
	}
}

// Without the incoming payload the unpatched instruction must run — a
// guard that the test above really exercises the patched path.
func TestHypercallWriteIntoCodePageBaseline(t *testing.T) {
	src := guest.WrapLongMode(`
	movi rdi, 3
	movi rsi, patch
	movi rdx, 10
	out 0x07, rax
patch:
	movi rax, 111
	mov rdi, rax
	out 0x00, rdi
	hlt
`)
	img := guest.MustFromAsm("hc-code-write-base", src)
	w := New()
	env := hypercall.NewEnv() // empty NetIn: recv writes nothing
	res, err := w.Run(img, RunConfig{
		Policy: hypercall.MaskOf(hypercall.NrRecv),
		Env:    env,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 111 {
		t.Fatalf("exit code %d, want 111", res.ExitCode)
	}
}

// udfScorerSrc is the examples/udf scorer: a C UDF that writes a global
// on every call. vcc places globals right after the code, on the same
// 4 KiB page.
const udfScorerSrc = `
int weights[4];

virtine int risk_score(int balance, int overdrafts) {
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
`

// A UDF that writes globals beside its code keeps its decoded page and
// compiled traces across calls: once warm, a tenant clone served from a
// parked COW shell compiles nothing, deoptimizes nothing and publishes
// nothing new to the code registry.
func TestCodeCacheSharedUDFTenantCOW(t *testing.T) {
	v, err := vcc.CompileFunc(udfScorerSrc, "risk_score")
	if err != nil {
		t.Fatal(err)
	}
	w := New(WithCOW(true))
	call := func(img *guest.Image, balance, overdrafts int64) *Result {
		t.Helper()
		res, err := w.Run(img, RunConfig{
			Policy: v.Policy, Args: vcc.MarshalArgs(balance, overdrafts),
			RetBytes: vcc.RetSize, Snapshot: true,
		}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		want := overdrafts*7 - balance/100*2
		if want < 0 {
			want = 0
		}
		if got := vcc.UnmarshalRet(res.Ret); got != want {
			t.Fatalf("risk_score(%d, %d) = %d, want %d", balance, overdrafts, got, want)
		}
		return res
	}
	// Warm-up takes both arms of the clamp, twice each: a trace is
	// compiled on the second visit to its head.
	for i := int64(0); i < 2; i++ {
		call(v.Image, 300, 4)
		call(v.Image, 5000, 1)
	}
	clone := v.Image.WithName(v.Image.Name + "@tenant-b")
	call(clone, 300, 4)
	merges := w.CodeCacheStats().Merges
	for i := int64(0); i < 6; i++ {
		res := call(clone, 1000*i, i)
		if res.COWPages == 0 {
			t.Fatalf("call %d: no COW reset", i)
		}
		if res.JIT.BlocksCompiled != 0 || res.JIT.BlockDeopts != 0 {
			t.Fatalf("call %d: compiled %d traces, deoptimized %d; want 0, 0",
				i, res.JIT.BlocksCompiled, res.JIT.BlockDeopts)
		}
		if res.JIT.BlockHits == 0 {
			t.Fatalf("call %d: never entered a compiled trace", i)
		}
	}
	if got := w.CodeCacheStats().Merges; got != merges {
		t.Fatalf("warm calls merged into the code registry %d times, want 0", got-merges)
	}
}

package cpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// Byte-exact code invalidation: a code page is dropped only by a write
// into the bytes its entries were decoded from. These tests pin the
// contract on every engine tier against the legacy interpreter.

var engineTiers = []struct {
	name          string
	legacy, noJIT bool
}{{"jit", false, false}, {"fused", false, true}, {"legacy", true, false}}

// tierRun is one run's outcome on one engine tier.
type tierRun struct {
	regs    [isa.NumRegs]uint64
	ip      uint64
	retired uint64
	cycles  uint64
	stats   JITStats  // this run's delta
	page    *codePage // decode state of the watched page after the run
}

// runTiers assembles src into one long-mode CPU per engine tier and runs
// it to halt runs times, each run restarting at the entry with the
// registers and memory the previous run left. It fails unless every
// tier matches the legacy engine bit for bit on registers, IP, Retired
// and cycles after every run, and returns the per-tier outcomes keyed by
// tier name. watch names the label whose code page is recorded.
func runTiers(t *testing.T, src string, runs int, watch string) map[string][]tierRun {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	page := p.Labels[watch] / codePageSize
	out := map[string][]tierRun{}
	for _, tier := range engineTiers {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		clk := cycles.NewClock()
		c := New(mem, clk, p.Entry)
		c.Legacy, c.NoJIT = tier.legacy, tier.noJIT
		c.SetupLongMode()
		for i := 0; i < runs; i++ {
			c.IP, c.Halted = p.Entry, false
			stats0, cy0, ret0 := c.Stats, clk.Now(), c.Retired
			if ex := c.Run(1_000_000); ex.Reason != ExitHalt {
				t.Fatalf("%s run %d: exit %+v", tier.name, i, ex)
			}
			out[tier.name] = append(out[tier.name], tierRun{
				regs: c.Regs, ip: c.IP, retired: c.Retired - ret0, cycles: clk.Now() - cy0,
				stats: JITStats{
					BlocksCompiled: c.Stats.BlocksCompiled - stats0.BlocksCompiled,
					BlockDeopts:    c.Stats.BlockDeopts - stats0.BlockDeopts,
				},
				page: c.codeAt(page),
			})
		}
	}
	for _, tier := range engineTiers {
		for i, r := range out[tier.name] {
			l := out["legacy"][i]
			if r.regs != l.regs || r.ip != l.ip || r.retired != l.retired || r.cycles != l.cycles {
				t.Fatalf("%s run %d diverges from legacy: regs %v ip %#x retired %d cycles %d, legacy regs %v ip %#x retired %d cycles %d",
					tier.name, i, r.regs, r.ip, r.retired, r.cycles, l.regs, l.ip, l.retired, l.cycles)
			}
		}
	}
	return out
}

// A store to data beside code — uncovered bytes of a decoded page, here
// a global right after the final hlt — keeps the page and its traces:
// once warm, a run compiles nothing and deoptimizes nothing.
func TestTraceSMCUncoveredStoreKeepsPage(t *testing.T) {
	src := `
.bits 64
_start:
	movi rcx, 8
	movi rdi, vx_data
loop:
	store [rdi], rcx
	add rsi, rcx
	dec rcx
	jnz loop
	load rax, [rdi]
	hlt
vx_data:
	.dq 99
`
	out := runTiers(t, src, 3, "vx_data")
	if got := out["legacy"][2].regs[isa.RAX]; got != 1 {
		t.Fatalf("rax = %d, want the last stored counter 1", got)
	}
	for _, tier := range []string{"jit", "fused"} {
		runs := out[tier]
		if runs[2].page == nil || runs[2].page != runs[1].page {
			t.Fatalf("%s: the data store unhooked the code page", tier)
		}
		if s := runs[2].stats; s.BlocksCompiled != 0 || s.BlockDeopts != 0 {
			t.Fatalf("%s: warm run compiled %d traces, deoptimized %d; want 0, 0",
				tier, s.BlocksCompiled, s.BlockDeopts)
		}
	}
	if out["jit"][0].stats.BlocksCompiled == 0 {
		t.Fatal("the loop trace was never compiled")
	}
}

// A store into a covered byte still unhooks the page and deoptimizes the
// running trace: the loop rewrites the immediate of a subroutine it
// calls, and every call must see the latest value.
func TestTraceSMCCoveredStoreDeopts(t *testing.T) {
	src := `
.bits 64
_start:
	movi rcx, 6
	movi rdi, vx_sub
loop:
	call vx_sub
	add rsi, rbx
	store [rdi+2], rcx
	dec rcx
	jnz loop
	hlt
vx_sub:
	movi rbx, 100
	ret
`
	out := runTiers(t, src, 2, "vx_sub")
	// Run 0: 100 + 6+5+4+3+2; run 1 starts with the immediate at 1.
	if want := uint64(100+6+5+4+3+2) + uint64(1+6+5+4+3+2); out["legacy"][1].regs[isa.RSI] != want {
		t.Fatalf("rsi = %d, want %d", out["legacy"][1].regs[isa.RSI], want)
	}
	if s := out["jit"][1].stats; s.BlockDeopts == 0 {
		t.Fatalf("covered store never deoptimized: %+v", s)
	}
}

// A trace never compiles bytes outside its page's cover. Here the loop
// trace, compiled at the start of the second iteration, follows a jmp
// into vx_t, which has not executed yet; the trace then patches vx_t's
// immediate (uncovered, so the page stays) before reaching it. Compiled
// from the bytes present at compile time, vx_t would load the first
// iteration's value 2 instead of 1.
func TestTraceSMCUndecodedTargetNotCompiled(t *testing.T) {
	src := `
.bits 64
_start:
	movi rcx, 2
	movi rdi, vx_t
loop:
	store [rdi+2], rcx
	cmp rcx, 2
	jz vx_back
	jmp vx_t
vx_back:
	dec rcx
	jnz loop
	hlt
vx_t:
	movi rbx, 7
	jmp vx_back
`
	out := runTiers(t, src, 1, "vx_t")
	if got := out["jit"][0].regs[isa.RBX]; got != 1 {
		t.Fatalf("rbx = %d, want 1 (stale bytes compiled into the trace)", got)
	}
	if out["jit"][0].stats.BlocksCompiled == 0 {
		t.Fatal("the loop trace was never compiled")
	}
}

// Uncovered bytes that the guest writes and then jumps to are decoded
// from what was written — and once decoded they are covered, so the
// next rewrite of them drops the page again. The guest stores a
// different `movi rbx, k; ret` into the data beside its code on each of
// three iterations and calls it.
func TestSelfModifyUncoveredThenJump(t *testing.T) {
	var stores string
	for k := 1; k <= 3; k++ {
		p, err := asm.Assemble(fmt.Sprintf(".bits 64\n\tmovi rbx, %d\n\tret\n\t.zero 5\n", k*10))
		if err != nil {
			t.Fatal(err)
		}
		stores += fmt.Sprintf(`
	movi rax, %d
	store [rdi], rax
	movi rax, %d
	store [rdi+8], rax
	call vx_data
	add rsi, rbx`,
			int64(binary.LittleEndian.Uint64(p.Code[0:])), int64(binary.LittleEndian.Uint64(p.Code[8:])))
	}
	src := `
.bits 64
_start:
	movi rdi, vx_data
` + stores + `
	hlt
vx_data:
	.zero 16
`
	out := runTiers(t, src, 2, "vx_data")
	if got := out["legacy"][0].regs[isa.RSI]; got != 60 {
		t.Fatalf("rsi = %d after three patched calls, want 60", got)
	}
}

// AdoptCode compares covered bytes only: a frozen page installs into
// memory whose data beside the code differs, and is refused where a
// covered byte differs. The adopted page's traces ride along, so the
// adopter compiles nothing and still matches a cold legacy run.
func TestCodeCacheSharedAdoptMasksUncovered(t *testing.T) {
	src := `
.bits 64
_start:
	movi rcx, 8
	movi rdi, vx_data
loop:
	load rax, [rdi]
	add rsi, rax
	dec rcx
	jnz loop
	hlt
vx_data:
	.dq 5
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Labels["vx_data"]
	load := func(patch func(mem []byte)) []byte {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		patch(mem)
		return mem
	}
	donor := New(load(func([]byte) {}), cycles.NewClock(), p.Entry)
	donor.SetupLongMode()
	for i := 0; i < 2; i++ { // the second run compiles the entry trace
		donor.IP, donor.Halted = p.Entry, false
		if ex := donor.Run(1000); ex.Reason != ExitHalt {
			t.Fatalf("donor: %+v", ex)
		}
	}
	cc := donor.ShareCode()
	page := data / codePageSize

	// Covered byte differs (the loop count immediate): refused.
	stale := New(load(func(mem []byte) { mem[p.Labels["_start"]+2] = 3 }), cycles.NewClock(), p.Entry)
	stale.AdoptCode(cc)
	if stale.code != nil && stale.code[page] != nil {
		t.Fatal("page adopted into memory whose covered bytes differ")
	}

	// Only the data differs: adopted, and every tier agrees with legacy.
	var ref tierRun
	for i := len(engineTiers) - 1; i >= 0; i-- { // legacy first
		tier := engineTiers[i]
		clk := cycles.NewClock()
		c := New(load(func(mem []byte) { mem[data] = 7 }), clk, p.Entry)
		c.Legacy, c.NoJIT = tier.legacy, tier.noJIT
		c.SetupLongMode()
		c.AdoptCode(cc)
		if c.code[page] != cc.pages[page] {
			t.Fatalf("%s: page with differing data beside code was refused", tier.name)
		}
		if ex := c.Run(1000); ex.Reason != ExitHalt {
			t.Fatalf("%s: %+v", tier.name, ex)
		}
		r := tierRun{regs: c.Regs, ip: c.IP, retired: c.Retired, cycles: clk.Now(), stats: c.Stats}
		if tier.legacy {
			ref = r
			if r.regs[isa.RSI] != 56 {
				t.Fatalf("rsi = %d, want 8*7 (the adopter's own data)", r.regs[isa.RSI])
			}
			continue
		}
		if r.regs != ref.regs || r.ip != ref.ip || r.retired != ref.retired || r.cycles != ref.cycles {
			t.Fatalf("%s adopter diverges from legacy: %+v vs %+v", tier.name, r, ref)
		}
		if r.stats.BlocksCompiled != 0 || r.stats.BlockDeopts != 0 {
			t.Fatalf("%s adopter compiled %d traces, deoptimized %d; want the donor's traces",
				tier.name, r.stats.BlocksCompiled, r.stats.BlockDeopts)
		}
	}
}

// Merge's same-source rule compares covered bytes only: a fuller page
// frozen from memory whose data beside the code differs still replaces
// the sparse registered page, so the registry converges; a page whose
// covered bytes differ never does.
func TestCodeCacheSharedMergeMasksUncovered(t *testing.T) {
	p, err := asm.Assemble(`
.bits 64
_start:
	movi rbx, 5
	hlt
vx_extra:
	movi rdx, 9
	hlt
vx_data:
	.dq 1
`)
	if err != nil {
		t.Fatal(err)
	}
	freeze := func(patch func(mem []byte), entries ...string) CodeCache {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		patch(mem)
		c := New(mem, cycles.NewClock(), p.Entry)
		c.SetupLongMode()
		for _, l := range entries {
			c.IP, c.Halted = p.Labels[l], false
			if ex := c.Run(100); ex.Reason != ExitHalt {
				t.Fatalf("%s: %+v", l, ex)
			}
		}
		return c.ShareCode()
	}
	page := p.Origin / codePageSize
	sparse := freeze(func([]byte) {}, "_start")
	fuller := freeze(func(mem []byte) { mem[p.Labels["vx_data"]] = 2 }, "_start", "vx_extra")
	merged := sparse.Merge(fuller)
	if merged.pages[page] != fuller.pages[page] {
		t.Fatal("merge kept the sparse page: a data byte beside the code blocked the upgrade")
	}
	patched := freeze(func(mem []byte) { mem[p.Labels["_start"]+2] = 6 }, "_start", "vx_extra")
	if got := sparse.Merge(patched); got.pages[page] != sparse.pages[page] {
		t.Fatal("merge let a page with different covered bytes displace the registered one")
	}
}

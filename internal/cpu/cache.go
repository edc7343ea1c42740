package cpu

// Decoded-instruction cache. The legacy interpreter re-parses raw bytes
// with isa.Decode on every retired instruction; at guest scale that decode
// is the dominant host cost (roughly half the wall-clock of a fib run).
// This file predecodes guest code into per-physical-page arrays of compact
// decoded entries: each instruction is decoded once per page generation,
// not once per execution.
//
// Correctness hinges on invalidation. Every write into guest-physical
// memory funnels through one of:
//
//   - the CPU's own store paths (storeWord, STOREB, WriteMem and the
//     compiled store closures in jit.go), which call invalidateCodeOne
//     directly, so self-modifying code re-decodes the bytes it just
//     wrote even on a bare CPU with no VMM attached;
//   - vmm.Context.HostWrite — the funnel image loads, argument
//     marshalling, and hypercall handler writes report to — which calls
//     InvalidateCode before the dirty-page bookkeeping;
//   - vmm.Context.Clean / CPU.Reset, which drop the whole cache (the
//     shell is zeroed; nothing cached can remain valid).
//
// Invalidation is byte-exact. Each page carries a cover bitmap, one bit
// per byte, recording which bytes its entries were decoded from; a
// write unhooks the page — entries and compiled traces together — only
// when it overlaps a covered byte. Data that shares a page with code (a
// compiler's globals placed right after the text) can therefore be
// written on every call without costing the page its decode. A store
// to a page that holds no decode state pays one nil test; dropping a
// page is a pointer store.
//
// Three rules keep everything that depends on a page inside its cover:
//
//   - predecode stops after an unconditional transfer (JMP, RET, HLT,
//     LJMP), so the data that follows code is never decoded as code;
//   - compileBlock compiles only offsets that already hold an entry in
//     the current mode, so a trace reads no uncovered byte;
//   - sharing compares covered bytes only (below).
//
// Pages can outlive one CPU. ShareCode freezes the current pages
// (marking them immutable, freezing their cover and recording the page
// bytes they were decoded from) and AdoptCode installs frozen pages into
// another CPU after verifying that the target memory still holds the
// covered bytes; uncovered bytes may differ freely. Wasp uses this to
// keep one decoded cache per image across pooled shells, snapshot
// restores, and parked COW shells: decode once per image, not once per
// run. A CPU that needs to write into a shared page (new entry,
// different mode) clones it first, so frozen pages are never mutated.

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// codePageSize is the invalidation granularity. It matches vmm.PageSize
// (the dirty-page granularity); vmm imports cpu, so the constant is
// restated here.
const codePageSize = 4096

// centry is one predecoded instruction, compact enough that a full page
// of entries stays cache-friendly (16 bytes per offset).
type centry struct {
	op   isa.Op
	dst  isa.Reg
	src  isa.Reg
	sub  byte
	mode isa.Mode
	n    uint8 // encoded length; 0 marks an empty slot
	cost uint8 // precomputed base cycle cost (InstrBase + mul/div extra)
	flag uint8 // fSpecial: execute via the legacy Step path
	imm  uint64
}

const (
	fSpecial = 1
	fFused   = 2
)

// specialOp marks opcodes the fast loop delegates to the legacy Step
// path: everything that can switch modes, flush the TLB, record a boot
// event, or exit to the VMM. They are rare, and delegating keeps exactly
// one implementation of the tricky architectural transitions.
var specialOp = [isa.NumOps]bool{
	isa.HLT: true, isa.OUT: true, isa.IN: true, isa.LGDT: true,
	isa.MOVCR: true, isa.RDCR: true, isa.LJMP: true,
}

// Superinstruction opcodes, in the isa.Op space above isa.NumOps. The
// decode pass fuses the hottest adjacent pairs the fib/AES/JS corpora
// execute (see the opcode-pair histogram in `virtine-bench -exp interp`)
// into a single cache entry: one dispatch retires both instructions with
// their combined cycle cost. Only pairs whose first instruction cannot
// observe the clock mid-pair are fused, and STORE never is (it carries
// the Mode32 ident-map latch).
const (
	fopCmpJcc   isa.Op = isa.NumOps + iota // cmp a, b ; jcc t
	fopCmpiJcc                             // cmpi a, imm ; jcc t  (imm32|t32 packed)
	fopDecJnz                              // dec a ; jnz t
	fopIncJnz                              // inc a ; jnz t
	fopPushCall                            // push a ; call t
	fopSubiCall                            // subi a, imm ; call t (packed)
	fopPushSubi                            // push a ; subi b, imm
	fopPopPush                             // pop a ; push b
	fopAddRet                              // add a, b ; ret
	fopMoviCall                            // movi a, imm ; call t (packed)
)

func isJcc(op isa.Op) bool { return op >= isa.JZ && op <= isa.JAE }

// packable32 reports whether a decode-time immediate survives the round
// trip through 32 bits (it was sign-extended to 64 at decode).
func packable32(v uint64) bool { return uint64(int64(int32(uint32(v)))) == v }

// packTarget32 reports whether a branch/call target can live in 32 bits.
// In 16/32-bit modes the executing mask re-truncates, so the low half is
// always enough; in long mode the target must genuinely fit.
func packTarget32(v uint64, m isa.Mode) bool { return m != isa.Mode64 || v>>32 == 0 }

// fusePair builds the superinstruction entry replacing a when b directly
// follows it, or reports that the pair does not fuse. Specials (and
// already-fused entries) never participate; pairs with packed immediates
// fuse only when both values fit their 32-bit halves.
func fusePair(a, b centry) (centry, bool) {
	if a.flag != 0 || b.flag != 0 {
		return centry{}, false
	}
	f := centry{
		mode: a.mode, n: a.n + b.n, cost: a.cost + b.cost, flag: fFused,
	}
	switch {
	case a.op == isa.CMP && isJcc(b.op):
		f.op, f.dst, f.src, f.sub, f.imm = fopCmpJcc, a.dst, a.src, byte(b.op), b.imm
	case a.op == isa.CMPI && isJcc(b.op):
		if !packable32(a.imm) || !packTarget32(b.imm, a.mode) {
			return centry{}, false
		}
		f.op, f.dst, f.sub = fopCmpiJcc, a.dst, byte(b.op)
		f.imm = uint64(uint32(a.imm)) | uint64(uint32(b.imm))<<32
	case a.op == isa.DEC && b.op == isa.JNZ:
		f.op, f.dst, f.imm = fopDecJnz, a.dst, b.imm
	case a.op == isa.INC && b.op == isa.JNZ:
		f.op, f.dst, f.imm = fopIncJnz, a.dst, b.imm
	case a.op == isa.PUSH && b.op == isa.CALL:
		f.op, f.dst, f.sub, f.imm = fopPushCall, a.dst, a.n, b.imm
	case a.op == isa.SUBI && b.op == isa.CALL:
		if !packable32(a.imm) || !packTarget32(b.imm, a.mode) {
			return centry{}, false
		}
		f.op, f.dst, f.sub = fopSubiCall, a.dst, a.n
		f.imm = uint64(uint32(a.imm)) | uint64(uint32(b.imm))<<32
	case a.op == isa.PUSH && b.op == isa.SUBI:
		f.op, f.dst, f.src, f.imm = fopPushSubi, a.dst, b.dst, b.imm
	case a.op == isa.POP && b.op == isa.PUSH:
		f.op, f.dst, f.src, f.sub = fopPopPush, a.dst, b.dst, a.n
	case a.op == isa.ADD && b.op == isa.RET:
		f.op, f.dst, f.src, f.sub = fopAddRet, a.dst, a.src, a.n
	case a.op == isa.MOVI && b.op == isa.CALL:
		if !packable32(a.imm) || !packTarget32(b.imm, a.mode) {
			return centry{}, false
		}
		f.op, f.dst, f.sub = fopMoviCall, a.dst, a.n
		f.imm = uint64(uint32(a.imm)) | uint64(uint32(b.imm))<<32
	default:
		return centry{}, false
	}
	return f, true
}

// baseCost returns the fixed cycle cost charged before/while executing op
// that does not depend on run-time state (InstrBase, plus the multi-cycle
// ALU charges). Memory-access costs stay in loadWord/storeWord because
// their fault paths must charge exactly as the legacy interpreter does.
func baseCost(op isa.Op) uint8 {
	c := uint8(cycles.InstrBase)
	switch op {
	case isa.MUL:
		c += cycles.InstrMul
	case isa.DIV, isa.MOD:
		c += cycles.InstrDiv
	}
	return c
}

func centryFrom(in isa.Inst, m isa.Mode) centry {
	e := centry{
		op: in.Op, dst: in.Dst, src: in.Src, sub: in.Sub,
		mode: m, n: uint8(in.Len), cost: baseCost(in.Op), imm: in.Imm,
	}
	if specialOp[in.Op] {
		e.flag = fSpecial
	}
	return e
}

// codePage holds the decoded entries for one 4 KiB physical page, indexed
// by offset within the page. Entries exist only at instruction starts
// that have actually been reached.
type codePage struct {
	// shared marks the page immutable: it is referenced by a CodeCache
	// (a Wasp per-image registry entry) and possibly by other CPUs. A
	// CPU must clone a shared page before writing new entries into it.
	shared bool
	// src is the page content when the page was frozen; AdoptCode and
	// Merge compare its covered bytes, so a stale decode can never be
	// installed.
	src []byte
	// cover has one bit per page byte, set for every byte some entry
	// was decoded from. It only grows while the page is private and is
	// frozen with it.
	cover [codePageSize / 64]uint64
	ents  [codePageSize]centry

	// blocks maps (offset | mode<<12) to the compiled closure block
	// starting there (jit.go). The map value is immutable; publication
	// is copy-on-write under mu so concurrent CPUs sharing a frozen page
	// read it with one atomic load. Blocks ride along with ShareCode /
	// AdoptCode, so every tenant clone of an image executes one compiled
	// form; validity is anchored to the page pointer itself — a write
	// into a covered byte drops the page, blocks and all.
	mu     sync.Mutex
	blocks atomic.Pointer[map[uint32]*cblock]
}

// addBlock publishes a compiled block on the page. The current map is
// never mutated: readers hold no lock.
func (pg *codePage) addBlock(key uint32, blk *cblock) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	old := pg.blocks.Load()
	var nm map[uint32]*cblock
	if old == nil {
		nm = make(map[uint32]*cblock, 4)
	} else {
		nm = make(map[uint32]*cblock, len(*old)+1)
		for k, v := range *old {
			nm[k] = v
		}
	}
	nm[key] = blk
	pg.blocks.Store(&nm)
}

// ensureCode sizes the per-page table on first use.
func (c *CPU) ensureCode() {
	if c.code == nil {
		c.code = make([]*codePage, (len(c.Mem)+codePageSize-1)/codePageSize)
	}
}

// codePageFor returns a writable page for the given page index,
// allocating or cloning (copy-on-write for shared pages) as needed.
// Either way the CPU now holds decode state its last ShareCode did not
// publish, so the new-pages flag is raised.
func (c *CPU) codePageFor(page uint64) *codePage {
	pg := c.code[page]
	if pg == nil {
		pg = &codePage{}
		c.code[page] = pg
	} else if pg.shared {
		cl := &codePage{ents: pg.ents, cover: pg.cover}
		// Compiled blocks stay valid across the clone: cloning happens
		// only to write entries for offsets/modes the shared page lacks,
		// never because covered bytes changed (that drops the page).
		cl.blocks.Store(pg.blocks.Load())
		c.code[page] = cl
		pg = cl
	}
	c.codeNew = true
	return pg
}

// CodeNew reports whether the CPU has decoded into pages that no
// ShareCode call has published yet. Wasp uses it to skip the per-run
// freeze/merge entirely on the warm path, where every page was adopted
// from the registry and nothing new was decoded.
func (c *CPU) CodeNew() bool { return c.codeNew }

// InvalidateCode drops the decoded pages whose covered bytes overlap
// [addr, addr+n) of guest-physical memory. It is called for host writes
// into guest memory (vmm.Context.HostWrite) and for Wasp's COW page
// restores. Dropping is a pointer store; shared pages are simply
// unreferenced, never mutated.
func (c *CPU) InvalidateCode(addr uint64, n int) {
	if n <= 0 || len(c.code) == 0 || addr >= uint64(len(c.Mem)) {
		return
	}
	end := addr + uint64(n)
	for p := addr / codePageSize; p < uint64(len(c.code)) && p*codePageSize < end; p++ {
		if c.code[p] != nil {
			c.clobber(p, max(addr, p*codePageSize), min(end, (p+1)*codePageSize))
		}
	}
}

// invalidateCodeOne is the store-path form of InvalidateCode for
// mode-width stores, which touch at most two pages. A store to a page
// with no decode state costs one nil test per page.
func (c *CPU) invalidateCodeOne(addr uint64, n int) {
	if len(c.code) == 0 {
		return
	}
	first := addr / codePageSize
	end := addr + uint64(n)
	if first < uint64(len(c.code)) && c.code[first] != nil {
		c.clobber(first, addr, min(end, (first+1)*codePageSize))
	}
	if last := (end - 1) / codePageSize; last != first && last < uint64(len(c.code)) && c.code[last] != nil {
		c.clobber(last, last*codePageSize, end)
	}
}

// clobber unhooks page p when the written physical range [lo, hi),
// which lies inside p, overlaps bytes its entries were decoded from.
func (c *CPU) clobber(p, lo, hi uint64) {
	base := p * codePageSize
	if c.code[p].covers(lo-base, hi-base) {
		c.code[p] = nil
		c.codeClobbered = true
	}
}

// covers reports whether any byte of [lo, hi) (page offsets, hi at most
// codePageSize) is covered.
func (pg *codePage) covers(lo, hi uint64) bool {
	for lo < hi {
		w, m, next := coverSpan(lo, hi)
		if pg.cover[w]&m != 0 {
			return true
		}
		lo = next
	}
	return false
}

// setCover marks [lo, hi) (page offsets) as covered.
func (pg *codePage) setCover(lo, hi uint64) {
	for lo < hi {
		w, m, next := coverSpan(lo, hi)
		pg.cover[w] |= m
		lo = next
	}
}

// coverSpan returns the cover word holding offset lo, the bits of
// [lo, hi) inside that word, and the offset where the next word starts.
func coverSpan(lo, hi uint64) (w, m, next uint64) {
	w = lo / 64
	next = (w + 1) * 64
	m = ^uint64(0) << (lo % 64)
	if hi < next {
		m &= ^uint64(0) >> (next - hi)
	}
	return w, m, next
}

// sameOn reports whether a and b, two equal-length copies of one page,
// agree on every byte cover marks: whole-page equality first, then only
// the 64-byte chunks that differ are checked byte by byte.
func sameOn(a, b []byte, cover *[codePageSize / 64]uint64) bool {
	if bytes.Equal(a, b) {
		return true
	}
	for w, m := range cover {
		lo := w * 64
		if m == 0 || lo >= len(a) {
			continue
		}
		hi := min(lo+64, len(a))
		if bytes.Equal(a[lo:hi], b[lo:hi]) {
			continue
		}
		for ; m != 0; m &= m - 1 {
			if i := lo + bits.TrailingZeros64(m); i < hi && a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// predecode decodes forward from physical address phys, filling the
// page's entries until the page ends, an already-decoded entry is
// reached, an unconditional transfer (JMP, RET, HLT, LJMP) has been
// decoded, or the bytes stop decoding — one decode pass per page, not one
// per retired instruction. Every byte an entry is decoded from joins the
// page's cover. It returns the entry for phys. A decode error at phys
// itself is returned (later errors just stop the fill — those offsets
// may be data that is never executed). An instruction spanning
// the page boundary is returned but not cached: invalidation of the
// second page could not find it.
func (c *CPU) predecode(phys uint64) (centry, error) {
	if phys >= uint64(len(c.Mem)) {
		// Fetch beyond physical memory: produce the decoder's error, as
		// the legacy path does (no page exists to cache into).
		_, err := isa.Decode(c.Mem, phys, c.Mode)
		return centry{}, err
	}
	c.ensureCode()
	mode := c.Mode
	page := phys / codePageSize
	pageEnd := (page + 1) * codePageSize
	var pg *codePage // materialized just before the first entry write, so
	// an uncacheable (page-spanning) instruction clones no shared page
	// and leaves the new-pages flag alone
	var ret centry
	var prevSlot *centry // previous slot in this pass, for pair fusion
	var prevOrig centry  // its original (unfused) entry
	first := true
	for p := phys; p < pageEnd; {
		in, err := isa.Decode(c.Mem, p, mode)
		if err != nil {
			if first {
				return centry{}, err
			}
			break
		}
		e := centryFrom(in, mode)
		if p+uint64(in.Len) > pageEnd {
			if first {
				return e, nil // executable, not cacheable
			}
			break
		}
		if pg == nil {
			pg = c.codePageFor(page)
		}
		slot := &pg.ents[p-page*codePageSize]
		if !first && slot.n != 0 && slot.mode == mode {
			break // rejoined an already-decoded run
		}
		*slot = e
		off := p - page*codePageSize
		pg.setCover(off, off+uint64(in.Len))
		// Superinstruction pass: rewrite the previous entry into a fused
		// pair head. The current entry keeps its own slot, so jumps into
		// the pair's second half still hit a plain decode.
		if prevSlot != nil {
			if f, ok := fusePair(prevOrig, e); ok {
				*prevSlot = f
				c.Stats.Fused++
			}
		}
		prevSlot, prevOrig = slot, e
		if first {
			ret = e
			first = false
		}
		if endsFlow[in.Op] {
			break // what follows is reached only by a jump, if at all
		}
		p += uint64(in.Len)
	}
	return ret, nil
}

// endsFlow marks the unconditional transfers: execution never falls
// through them, so predecode stops there rather than decode the bytes
// after them (often data) as code.
var endsFlow = [isa.NumOps]bool{isa.JMP: true, isa.RET: true, isa.HLT: true, isa.LJMP: true}

// CodeCache is an immutable set of predecoded pages detached from a CPU,
// held by Wasp's per-image registry and by snapshots so later runs of the
// same image skip decoding entirely.
type CodeCache struct {
	pages []*codePage
}

// Empty reports whether the cache holds no pages.
func (cc CodeCache) Empty() bool { return len(cc.pages) == 0 }

// Pages reports the number of frozen pages (telemetry/tests).
func (cc CodeCache) Pages() int {
	n := 0
	for _, pg := range cc.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// Merge combines cc with other, returning the result. A page missing
// from cc is filled; an existing page is replaced only when the newcomer
// was decoded from the *same* source bytes — equal on every byte either
// page covers; uncovered data may differ — and holds strictly more
// entries (an input-dependent jump reached code the first freeze never
// executed) — without the upgrade, shells adopting the sparse version
// would clone, re-decode, and re-freeze that page on every run. Pages
// frozen from different bytes (self-modified code) never displace the
// registered version: the registered one matches the image's canonical
// load content, which is what the next adopt verifies against. The
// receiver's page slice is never mutated — readers may be iterating it
// without a lock (AdoptCode runs outside the registry mutex), so a
// combined result is built on a fresh slice.
func (cc CodeCache) Merge(other CodeCache) CodeCache {
	if cc.Empty() {
		return other
	}
	better := func(cur, nw *codePage) bool {
		if nw == nil {
			return false
		}
		if cur == nil {
			return true
		}
		return cur != nw && sameSource(cur, nw) && nw.popCount() > cur.popCount()
	}
	changed := false
	for i, pg := range other.pages {
		if i < len(cc.pages) && better(cc.pages[i], pg) {
			changed = true
			break
		}
	}
	if !changed {
		return cc
	}
	pages := append([]*codePage(nil), cc.pages...)
	for i, pg := range other.pages {
		if i < len(pages) && better(pages[i], pg) {
			pages[i] = pg
		}
	}
	return CodeCache{pages: pages}
}

// sameSource reports whether two frozen pages were decoded from the same
// bytes: equal on the union of their covers.
func sameSource(a, b *codePage) bool {
	u := a.cover
	for i := range u {
		u[i] |= b.cover[i]
	}
	return len(a.src) == len(b.src) && sameOn(a.src, b.src, &u)
}

// popCount reports how many decoded entries the page holds.
func (pg *codePage) popCount() int {
	n := 0
	for i := range pg.ents {
		if pg.ents[i].n != 0 {
			n++
		}
	}
	return n
}

// ShareCode freezes the CPU's current decoded pages and returns them as a
// CodeCache. Frozen pages record the page bytes, and their cover stops
// growing: they are never mutated again — this CPU clones on its next
// write into one. The caller is responsible for publishing the result
// with proper synchronization (Wasp's registries do this under their
// locks).
func (c *CPU) ShareCode() CodeCache {
	if len(c.code) == 0 {
		return CodeCache{}
	}
	pages := make([]*codePage, len(c.code))
	any := false
	for i, pg := range c.code {
		if pg == nil {
			continue
		}
		if !pg.shared {
			lo := i * codePageSize
			hi := lo + codePageSize
			if hi > len(c.Mem) {
				hi = len(c.Mem)
			}
			pg.src = append([]byte(nil), c.Mem[lo:hi]...)
			pg.shared = true
		}
		pages[i] = pg
		any = true
	}
	c.codeNew = false
	if !any {
		return CodeCache{}
	}
	return CodeCache{pages: pages}
}

// AdoptCode installs frozen pages into this CPU where it has none of its
// own, skipping any page whose covered bytes no longer match the CPU's
// memory — a stale decode is impossible by construction, whatever path
// populated the memory (image load, snapshot restore, COW reset). Bytes
// outside the cover (data beside code) may differ.
func (c *CPU) AdoptCode(cc CodeCache) {
	if cc.Empty() {
		return
	}
	c.ensureCode()
	n := len(cc.pages)
	if len(c.code) < n {
		n = len(c.code)
	}
	for i := 0; i < n; i++ {
		pg := cc.pages[i]
		if pg == nil || c.code[i] != nil {
			continue
		}
		lo := i * codePageSize
		if lo+len(pg.src) > len(c.Mem) || !sameOn(pg.src, c.Mem[lo:lo+len(pg.src)], &pg.cover) {
			continue
		}
		c.code[i] = pg
	}
}

// CodePages reports how many pages currently hold decoded entries
// (tests and telemetry).
func (c *CPU) CodePages() int {
	n := 0
	for _, pg := range c.code {
		if pg != nil {
			n++
		}
	}
	return n
}

package core

import (
	"math/bits"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// The word-packed ACE solver. The scalar sweep (sweepGroups) walks one
// merged per-bit timeline per fault group: for a C-column wordline and an
// Mx1 mode that re-walks every byte slot's timeline ~(8+M) times and pays
// per-group cursor and map setup ~C times per row. The packed solver
// instead processes each wordline once:
//
//   - the row's byte-slot timelines are merged into a single breakpoint
//     stream (lifetime.Packer);
//   - two bitmaps of 64-bit occupancy words span the row's columns — bit
//     c of word w in `uarch` (resp. `live`) is the microarchitectural
//     (resp. program-level) ACEness of column 64*w+c at the current
//     breakpoint — updated incrementally as slots change state;
//   - every fault group anchored in the row is precomputed as word masks
//     over its 64-column window (detected-region union, undetected-region
//     union, and the per-region masks the true-DUE refinement needs), so
//     classifying a group is a handful of AND/OR word operations;
//   - groups are re-classified only when a slot under their window
//     changes (delta flushing): each group's previous classification is
//     flushed into the counters for the interval since its last change,
//     exactly mirroring the scalar sweep's piecewise-constant spans.
//
// Counters are integer sums of span-length * class contributions, and the
// packed spans refine the scalar spans (both are piecewise-constant
// partitions of the same step functions), so results are bit-identical
// (==) to the scalar solver — solver_equiv_test.go pins this across every
// scheme x fault-mode combination.

var obsPackedRows = obs.NewCounter("core.packed_rows")

// PackedEligible reports whether the word-packed solver can serve the
// given fault mode: a single-wordline pattern at most 64 columns wide.
// (Every Mx1 mode in the paper's evaluation qualifies; multi-row Rect
// and wider Custom modes fall back to the scalar solver.)
func PackedEligible(mode bitgeom.FaultMode) bool {
	_, ok := mode.RowMask()
	return ok
}

// classDue packs a group classification and its DUE-union membership
// (equations 6-7 accumulate detected-and-ACE time independently of the
// four-class split) into one byte: bits 0-1 the Class, bit 2 the union.
type classDue uint8

const classDueUnion classDue = 4

func (c classDue) class() Class { return Class(c & 3) }
func (c classDue) due() bool    { return c&classDueUnion != 0 }

// rowSolver is the reusable scratch of one packed-sweep worker. All
// state is row-local; nothing is shared between workers.
type rowSolver struct {
	a      *Analyzer
	scheme ecc.Scheme
	s      *Series
	window interval.Cycle

	offs  []int32 // mode column offsets (DCol), ascending
	width int     // mode bounding width
	ac    int     // anchors (fault groups) per row
	cols  int     // geometry columns per row
	bpw   int     // tracker bytes per word

	rm interleave.RowMap
	pk lifetime.Packer

	// Slot index: keySlot/keyStamp map tracker slot (word*bpw+byte) to a
	// row-local slot id; stamped per row so no clearing is needed.
	keySlot  []int32
	keyStamp []int64
	rowSeq   int64

	slotByte []int32          // per slot: byte index within the word
	rawLists [][]lifetime.Seg // per slot: its tracker timeline
	segLists [][]lifetime.Seg // per slot: filtered timeline (views into segBuf)
	segBuf   []lifetime.Seg   // filtered-segment arena for the row
	stateBuf []byteState      // per filtered segment: its resolved state
	segOff   []int32          // per slot: offset into segBuf/stateBuf
	slotCols []int32          // columns grouped by slot (each ascending)
	slotOff  []int32          // per slot: offset of its columns in slotCols
	colSlot  []int32          // per column: owning slot id
	colSrc   []uint8          // per column: source bit within the slot's live byte

	// Per-anchor group tables and solver state, consolidated into one
	// struct array so a group touch costs one cache line instead of a
	// load from half a dozen parallel arrays.
	anchors  []anchorState
	detRegs  []uint64 // detected-region masks, flattened
	doms     []domAcc // domain accumulation scratch (<= mode size entries)
	prevDoms []domAcc // previous anchor's partition, for table reuse

	// Uniform-row fast path: when every anchor of the row shares one
	// region partition (interleaved layouts assign domains periodically,
	// so this is the overwhelmingly common case), classification is
	// evaluated bit-sliced — one boolean-word computation classifies 64
	// anchors at once, and flushes fire only where the packed class
	// planes actually changed.
	uniform  bool
	detOffs  []int32 // offsets under the shared detected mask
	umOffs   []int32 // offsets under the shared undetected mask
	regStart []int32 // per detected region: offset into regOffs
	regOffs  []int32
	planeDue []uint64 // per anchor word: DUE-union bit plane
	planeC0  []uint64 // class bit 0 plane
	planeC1  []uint64 // class bit 1 plane
	validW   []uint64 // per anchor word: in-range anchor mask
	lastT    []interval.Cycle

	// Per-breakpoint solver state.
	uarch  []uint64 // occupancy words (+2 guard words for extraction)
	live   []uint64
	ranges []anchorRange // scratch: anchor ranges affected by a span
}

// anchorRange is an inclusive range of anchor columns whose occupancy
// may have changed in the current span. Changed columns arrive in
// ascending order per slot, so affected anchors coalesce into a handful
// of ranges per span — the re-classification pass walks them
// sequentially instead of chasing individually marked anchors.
type anchorRange struct{ lo, hi int32 }

// mergeRanges sorts the span's anchor ranges and merges overlapping or
// adjacent ones in place, so no anchor is re-classified twice. Ranges
// from different slots of one span can interleave; the list is tiny, so
// insertion sort suffices.
func mergeRanges(ranges *[]anchorRange) {
	rs := *ranges
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].lo < rs[j-1].lo; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	out := rs[:1]
	for _, rg := range rs[1:] {
		last := &out[len(out)-1]
		if rg.lo <= last.hi+1 {
			if rg.hi > last.hi {
				last.hi = rg.hi
			}
		} else {
			out = append(out, rg)
		}
	}
	*ranges = out
}

// anchorState is the per-fault-group row state: the group's region
// masks (rebuilt per row by buildAnchors, which zeroes the rest) and
// the delta-flushing bookkeeping of the span sweep.
type anchorState struct {
	dm, um       uint64 // detected / undetected region mask unions
	prevU, prevL uint64 // masked occupancy at the last classification
	last         interval.Cycle
	detOff       int32 // detected-region masks: detRegs[detOff:detOff+nDet]
	nDet         int32
	class        classDue
}

type domAcc struct {
	dom   int32
	nbits int32
	mask  uint64
}

// extract64 returns the 64 occupancy bits starting at column c. words
// carries one guard word past the row's columns, so the two-word read
// never goes out of bounds and bits past the row read as zero.
func extract64(words []uint64, c int) uint64 {
	w, s := c>>6, uint(c&63)
	x := words[w] >> s
	if s != 0 {
		x |= words[w+1] << (64 - s)
	}
	return x
}

// sweepRowsPacked classifies every fault group anchored in rows
// [rowLo, rowHi) with the word-packed solver, accumulating into s.
func (a *Analyzer) sweepRowsPacked(scheme ecc.Scheme, mode bitgeom.FaultMode, s *Series, window interval.Cycle, rowLo, rowHi int) {
	geom := a.Layout.Geom
	rs := rowSolver{
		a:      a,
		scheme: scheme,
		s:      s,
		window: window,
		width:  0,
		ac:     geom.AnchorsPerRow(mode),
		cols:   geom.Cols,
		bpw:    a.Tracker.BytesPerWord(),
	}
	_, rs.width = mode.Bounds()
	for _, o := range mode.Offsets() {
		rs.offs = append(rs.offs, int32(o.DCol))
	}
	nslots := a.Tracker.Words() * rs.bpw
	rs.keySlot = make([]int32, nslots)
	rs.keyStamp = make([]int64, nslots)
	rs.colSlot = make([]int32, rs.cols)
	rs.colSrc = make([]uint8, rs.cols)
	rs.anchors = make([]anchorState, rs.ac)
	// Two guard words: the bit-sliced path extracts at anchor-word
	// granularity, up to 63 columns past the last real anchor.
	rs.uarch = make([]uint64, (rs.cols+63)/64+2)
	rs.live = make([]uint64, (rs.cols+63)/64+2)
	naw := (rs.ac + 63) / 64
	rs.planeDue = make([]uint64, naw)
	rs.planeC0 = make([]uint64, naw)
	rs.planeC1 = make([]uint64, naw)
	rs.validW = make([]uint64, naw)
	rs.lastT = make([]interval.Cycle, rs.ac)
	for wi := 0; wi < naw; wi++ {
		n := rs.ac - wi*64
		if n >= 64 {
			rs.validW[wi] = ^uint64(0)
		} else {
			rs.validW[wi] = uint64(1)<<n - 1
		}
	}

	var merges uint64
	observing := obs.Enabled()
	var groupBits, mergeChain obs.LocalHist
	msize := uint64(mode.Size())
	for r := rowLo; r < rowHi; r++ {
		spans := rs.solveRow(r)
		merges += spans
		if observing {
			mergeChain.Observe(spans)
			for i := 0; i < rs.ac; i++ {
				groupBits.Observe(msize)
			}
		}
	}
	obsMerges.Add(merges)
	obsPackedRows.Add(uint64(rowHi - rowLo))
	groupBits.FlushTo(obsGroupBits)
	mergeChain.FlushTo(obsMergeChain)
}

// buildSlots resolves the row's columns to tracker byte slots and
// builds the column<->slot cross references.
func (rs *rowSolver) buildSlots() {
	rs.rowSeq++
	rs.slotByte = rs.slotByte[:0]
	rs.rawLists = rs.rawLists[:0]
	for c := 0; c < rs.cols; c++ {
		word, bit := rs.rm.Word[c], rs.rm.Bit[c]
		byteIdx := bit >> 3
		key := int(word)*rs.bpw + int(byteIdx)
		if rs.keyStamp[key] != rs.rowSeq {
			rs.keyStamp[key] = rs.rowSeq
			rs.keySlot[key] = int32(len(rs.slotByte))
			rs.slotByte = append(rs.slotByte, byteIdx)
			rs.rawLists = append(rs.rawLists, rs.a.Tracker.Segments(int(word), int(byteIdx)))
		}
		rs.colSlot[c] = rs.keySlot[key]
		rs.colSrc[c] = uint8(bit & 7)
	}
	// Filter each timeline down to segments whose state can matter,
	// resolving the byte state once per segment. Dead segments — and
	// pending segments whose version is never consumed — have live == 0
	// and uarch == false, indistinguishable from gaps, so keeping them
	// would only add breakpoints that flip no occupancy bits. Adjacent
	// segments resolving to the same state merge into one span.
	rs.segBuf = rs.segBuf[:0]
	rs.stateBuf = rs.stateBuf[:0]
	nslots := len(rs.slotByte)
	if cap(rs.segOff) < nslots+1 {
		rs.segOff = make([]int32, nslots+1)
	}
	rs.segOff = rs.segOff[:nslots+1]
	for i := 0; i < nslots; i++ {
		rs.segOff[i] = int32(len(rs.segBuf))
		byteIdx := int(rs.slotByte[i])
		for _, sg := range rs.rawLists[i] {
			st := rs.a.segStateByte(sg, byteIdx)
			if !st.uarch {
				continue
			}
			if k := len(rs.segBuf); k > int(rs.segOff[i]) && rs.segBuf[k-1].End == sg.Start && rs.stateBuf[k-1] == st {
				rs.segBuf[k-1].End = sg.End
				continue
			}
			rs.segBuf = append(rs.segBuf, sg)
			rs.stateBuf = append(rs.stateBuf, st)
		}
	}
	rs.segOff[nslots] = int32(len(rs.segBuf))
	rs.segLists = rs.segLists[:0]
	for i := 0; i < nslots; i++ {
		rs.segLists = append(rs.segLists, rs.segBuf[rs.segOff[i]:rs.segOff[i+1]])
	}
	// Group columns by slot, preserving ascending column order per slot.
	n := len(rs.slotByte)
	if cap(rs.slotOff) < n+1 {
		rs.slotOff = make([]int32, n+1)
	}
	rs.slotOff = rs.slotOff[:n+1]
	clear(rs.slotOff)
	for c := 0; c < rs.cols; c++ {
		rs.slotOff[rs.colSlot[c]+1]++
	}
	for i := 0; i < n; i++ {
		rs.slotOff[i+1] += rs.slotOff[i]
	}
	if cap(rs.slotCols) < rs.cols {
		rs.slotCols = make([]int32, rs.cols)
	}
	rs.slotCols = rs.slotCols[:rs.cols]
	fill := make([]int32, n)
	copy(fill, rs.slotOff[:n])
	for c := 0; c < rs.cols; c++ {
		s := rs.colSlot[c]
		rs.slotCols[fill[s]] = int32(c)
		fill[s]++
	}
}

// buildAnchors precomputes, for every fault group anchored in the row,
// its region word masks and the scheme's reaction to each region size.
// It fully overwrites rs.anchors, which also resets the sweep state
// (class, last, prevU/prevL) for the new row. Interleaved layouts
// assign domains periodically along the row, so consecutive anchors
// usually induce the same partition of mode offsets into regions —
// when the partition repeats, the previous anchor's masks and reaction
// tables are reused without consulting the scheme again.
func (rs *rowSolver) buildAnchors() {
	rs.detRegs = rs.detRegs[:0]
	rs.prevDoms = rs.prevDoms[:0]
	rs.uniform = true
	for a := 0; a < rs.ac; a++ {
		rs.doms = rs.doms[:0]
		for _, o := range rs.offs {
			dom := rs.rm.Dom[a+int(o)]
			j := 0
			for ; j < len(rs.doms); j++ {
				if rs.doms[j].dom == dom {
					break
				}
			}
			if j == len(rs.doms) {
				rs.doms = append(rs.doms, domAcc{dom: dom})
			}
			rs.doms[j].nbits++
			rs.doms[j].mask |= uint64(1) << o
		}
		// Reactions depend only on the partition shape (region sizes and
		// masks), not on domain identities.
		if a > 0 && samePartition(rs.doms, rs.prevDoms) {
			prev := rs.anchors[a-1]
			rs.anchors[a] = anchorState{dm: prev.dm, um: prev.um, detOff: prev.detOff, nDet: prev.nDet}
			continue
		}
		if a > 0 {
			rs.uniform = false
		}
		var dm, um uint64
		off := int32(len(rs.detRegs))
		for _, d := range rs.doms {
			switch rs.scheme.React(int(d.nbits)) {
			case ecc.ReactDetected:
				dm |= d.mask
				rs.detRegs = append(rs.detRegs, d.mask)
			case ecc.ReactUndetected:
				um |= d.mask
			}
		}
		rs.anchors[a] = anchorState{dm: dm, um: um, detOff: off, nDet: int32(len(rs.detRegs)) - off}
		rs.doms, rs.prevDoms = rs.prevDoms[:0], rs.doms
	}
	if rs.uniform && rs.ac > 0 {
		rs.buildUniformOffsets()
	}
}

// buildUniformOffsets flattens the row's shared partition into offset
// lists for the bit-sliced classifier: bit a of OR-over-detOffs of
// (uarch >> o) is exactly anyDet of the group anchored at column a.
func (rs *rowSolver) buildUniformOffsets() {
	rs.detOffs, rs.umOffs = rs.detOffs[:0], rs.umOffs[:0]
	rs.regStart, rs.regOffs = rs.regStart[:0], rs.regOffs[:0]
	an0 := rs.anchors[0]
	for m := an0.dm; m != 0; m &= m - 1 {
		rs.detOffs = append(rs.detOffs, int32(bits.TrailingZeros64(m)))
	}
	for m := an0.um; m != 0; m &= m - 1 {
		rs.umOffs = append(rs.umOffs, int32(bits.TrailingZeros64(m)))
	}
	for _, reg := range rs.detRegs[an0.detOff : an0.detOff+an0.nDet] {
		rs.regStart = append(rs.regStart, int32(len(rs.regOffs)))
		for m := reg; m != 0; m &= m - 1 {
			rs.regOffs = append(rs.regOffs, int32(bits.TrailingZeros64(m)))
		}
	}
	rs.regStart = append(rs.regStart, int32(len(rs.regOffs)))
}

// classifyWord re-classifies the 64 groups of anchor word wi in one
// bit-sliced evaluation and flushes exactly the anchors whose class (or
// DUE-union membership) changed. Anchors in the word that no changed
// column touches recompute to their previous planes and cost nothing.
func (rs *rowSolver) classifyWord(wi int, t interval.Cycle) {
	base := wi << 6
	var D, S, T uint64
	for _, o := range rs.detOffs {
		D |= extract64(rs.uarch, base+int(o))
	}
	for _, o := range rs.umOffs {
		S |= extract64(rs.live, base+int(o))
	}
	for r := 0; r+1 < len(rs.regStart); r++ {
		var ur, lr uint64
		for _, o := range rs.regOffs[rs.regStart[r]:rs.regStart[r+1]] {
			ur |= extract64(rs.uarch, base+int(o))
			lr |= extract64(rs.live, base+int(o))
		}
		T |= ur & lr
	}
	// Class planes, mirroring classify's switch bit-parallel
	// (UnACE=0, FalseDUE=1, TrueDUE=2, SDC=3).
	var sdc, td, fd uint64
	if rs.a.DetectionPreemptsSDC {
		td = D & (T | S)
		fd = D &^ (T | S)
		sdc = S &^ D
	} else {
		sdc = S
		td = T &^ S
		fd = D &^ (T | S)
	}
	valid := rs.validW[wi]
	due := D & valid
	c0 := (fd | sdc) & valid
	c1 := (td | sdc) & valid
	diff := (c0 ^ rs.planeC0[wi]) | (c1 ^ rs.planeC1[wi]) | (due ^ rs.planeDue[wi])
	for m := diff; m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		ai := base + int(j)
		old := classDue((rs.planeC0[wi]>>j)&1 | ((rs.planeC1[wi]>>j)&1)<<1 | ((rs.planeDue[wi]>>j)&1)<<2)
		if old != 0 && t > rs.lastT[ai] {
			addCounters(rs.s, rs.window, old.class(), old.due(), rs.lastT[ai], t)
		}
		rs.lastT[ai] = t
	}
	rs.planeC0[wi], rs.planeC1[wi], rs.planeDue[wi] = c0, c1, due
}

// samePartition reports whether two offset partitions have identical
// region masks and sizes (domain identities excluded).
func samePartition(a, b []domAcc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].mask != b[i].mask || a[i].nbits != b[i].nbits {
			return false
		}
	}
	return true
}

// classify resolves the current classification of the group an from its
// masked occupancy extracts — the word-level equivalent of the scalar
// sweep's per-region bit walk. u and l carry only bits under dm|um (the
// caller masks them so unchanged extracts can be skipped without a
// spurious re-classification).
func (rs *rowSolver) classify(an *anchorState, u, l uint64) classDue {
	dm, um := an.dm, an.um
	anyDet := u&dm != 0
	if !anyDet && um == 0 {
		return 0
	}
	anySDC := l&um != 0
	anyTrue := false
	if anyDet && l&dm != 0 {
		for _, reg := range rs.detRegs[an.detOff : an.detOff+an.nDet] {
			if u&reg != 0 && l&reg != 0 {
				anyTrue = true
				break
			}
		}
	}
	cls := ClassUnACE
	if rs.a.DetectionPreemptsSDC && anyDet {
		if anyTrue || anySDC {
			cls = ClassTrueDUE
		} else {
			cls = ClassFalseDUE
		}
	} else {
		switch {
		case anySDC:
			cls = ClassSDC
		case anyTrue:
			cls = ClassTrueDUE
		case anyDet:
			cls = ClassFalseDUE
		}
	}
	out := classDue(cls)
	if anyDet {
		out |= classDueUnion
	}
	return out
}

// flush accumulates the anchor's current classification over
// [an.last, t) and restarts its interval at t.
func (rs *rowSolver) flush(an *anchorState, t interval.Cycle) {
	if c := an.class; c != 0 && t > an.last {
		addCounters(rs.s, rs.window, c.class(), c.due(), an.last, t)
	}
	an.last = t
}

// solveRow sweeps one wordline's packed timeline, returning the number
// of breakpoint spans processed (the merge-chain work measure).
func (rs *rowSolver) solveRow(r int) uint64 {
	a := rs.a
	a.Layout.Row(r, &rs.rm)
	rs.buildSlots()
	rs.buildAnchors()
	p := rs.pk.Pack(rs.segLists, a.TotalCycles)

	clear(rs.uarch)
	clear(rs.live)
	if rs.uniform {
		clear(rs.planeDue)
		clear(rs.planeC0)
		clear(rs.planeC1)
		clear(rs.lastT)
	}

	nspans := p.Spans()
	for i := 0; i < nspans; i++ {
		t, _ := p.Span(i)
		rs.ranges = rs.ranges[:0]
		rlo, rhi := -1, -1 // pending anchor range
		for _, ch := range p.Changes(i) {
			var st byteState
			if ch.Seg >= 0 {
				st = rs.stateBuf[rs.segOff[ch.Slot]+ch.Seg]
			}
			cols := rs.slotCols[rs.slotOff[ch.Slot]:rs.slotOff[ch.Slot+1]]
			for _, col := range cols {
				w, b := col>>6, uint(col&63)
				bit := uint64(1) << b
				var nu, nl uint64
				if st.uarch {
					nu = bit
				}
				if st.live>>(rs.colSrc[col]&7)&1 != 0 {
					nl = bit
				}
				if rs.uarch[w]&bit == nu && rs.live[w]&bit == nl {
					continue // occupancy unchanged: no group can change class
				}
				rs.uarch[w] = rs.uarch[w]&^bit | nu
				rs.live[w] = rs.live[w]&^bit | nl
				// Every group whose window covers this column may change
				// class; grow or emit the pending anchor range.
				lo := int(col) - rs.width + 1
				if lo < 0 {
					lo = 0
				}
				hi := int(col)
				if hi > rs.ac-1 {
					hi = rs.ac - 1
				}
				switch {
				case rlo < 0:
					rlo, rhi = lo, hi
				case lo >= rlo && lo <= rhi+1:
					if hi > rhi {
						rhi = hi
					}
				default:
					rs.ranges = append(rs.ranges, anchorRange{int32(rlo), int32(rhi)})
					rlo, rhi = lo, hi
				}
			}
		}
		if rlo < 0 {
			continue // no occupancy bit changed this span
		}
		rs.ranges = append(rs.ranges, anchorRange{int32(rlo), int32(rhi)})
		if len(rs.ranges) > 1 {
			mergeRanges(&rs.ranges)
		}
		if rs.uniform {
			lastWi := -1
			for _, rg := range rs.ranges {
				for wi := int(rg.lo) >> 6; wi <= int(rg.hi)>>6; wi++ {
					if wi == lastWi {
						continue
					}
					lastWi = wi
					rs.classifyWord(wi, t)
				}
			}
			continue
		}
		for _, rg := range rs.ranges {
			for ai := rg.lo; ai <= rg.hi; ai++ {
				an := &rs.anchors[ai]
				m := an.dm | an.um
				if m == 0 {
					continue // every region corrected: never anything to count
				}
				u := extract64(rs.uarch, int(ai)) & m
				l := extract64(rs.live, int(ai)) & m
				if u == an.prevU && l == an.prevL {
					continue // inputs under the group's masks are unchanged
				}
				an.prevU, an.prevL = u, l
				rs.flush(an, t)
				an.class = rs.classify(an, u, l)
			}
		}
	}
	if rs.uniform {
		for wi := range rs.planeDue {
			nz := rs.planeDue[wi] | rs.planeC0[wi] | rs.planeC1[wi]
			for m := nz; m != 0; m &= m - 1 {
				j := uint(bits.TrailingZeros64(m))
				ai := wi<<6 + int(j)
				cd := classDue((rs.planeC0[wi]>>j)&1 | ((rs.planeC1[wi]>>j)&1)<<1 | ((rs.planeDue[wi]>>j)&1)<<2)
				if a.TotalCycles > rs.lastT[ai] {
					addCounters(rs.s, rs.window, cd.class(), cd.due(), rs.lastT[ai], a.TotalCycles)
				}
			}
		}
		return uint64(nspans)
	}
	for ai := range rs.anchors {
		rs.flush(&rs.anchors[ai], a.TotalCycles)
	}
	return uint64(nspans)
}

// Package core implements the paper's contribution: architectural
// vulnerability factor analysis for spatial multi-bit transient faults
// (MB-AVF), via ACE analysis over per-bit lifetime timelines.
//
// For a hardware structure laid out by an interleave.Layout, a fault mode
// defines fault groups (sets of physically adjacent bits that flip
// together, Section IV-A). Each fault group is split by the layout into
// overlapped regions — the bits it shares with each protection domain
// (Section V-A). At every cycle, each region is classified from:
//
//   - the protection scheme's reaction to the region's size (corrected /
//     detected / undetected), and
//   - the region's ACEness: microarchitectural ACE (uarch: the value will
//     be consumed) for DUE analysis, and program-level liveness (prog: the
//     bits influence program output) for SDC analysis, per Section VII-B.
//
// The group's classification is the worst of its regions (SDC > true DUE >
// false DUE > unACE), with the optional detection-preempts-SDC rule used
// for inter-thread interleaved register files (Section VIII). The DUE
// MB-AVF of equations 6-7 — the union over regions of detected-and-ACE
// time — is accumulated independently of the four-class split so that both
// of the paper's models are available from one pass.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"mbavf/internal/bitgeom"
	"mbavf/internal/dataflow"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// Observability series for the MB-AVF engine. Sweep workers accumulate
// into plain locals (counters and LocalHists) and publish one atomic
// flush per shard, so the group sweep's inner loop never touches shared
// state.
var (
	obsAnalyses = obs.NewCounter("core.analyses")
	obsGroups   = obs.NewCounter("core.fault_groups")
	obsMerges   = obs.NewCounter("core.interval_merges")
	// obsGroupBits is the distribution of fault-group sizes in bits (how
	// many physical bits flip together per enumerated group).
	obsGroupBits = obs.NewHistogram("core.group_bits")
	// obsMergeChain is the distribution of interval-merge chain lengths:
	// how many timeline points one group's sweep had to combine.
	obsMergeChain = obs.NewHistogram("core.merge_chain")
)

// Class is the outcome class of a fault group (or region) at an instant.
type Class uint8

const (
	// ClassUnACE: the fault has no effect (masked or corrected).
	ClassUnACE Class = iota
	// ClassFalseDUE: the fault is detected but would not have corrupted
	// program output if ignored.
	ClassFalseDUE
	// ClassTrueDUE: the fault is detected and would have corrupted
	// program output.
	ClassTrueDUE
	// ClassSDC: the fault defeats the protection and corrupts output.
	ClassSDC
)

func (c Class) String() string {
	switch c {
	case ClassUnACE:
		return "unace"
	case ClassFalseDUE:
		return "false-due"
	case ClassTrueDUE:
		return "true-due"
	case ClassSDC:
		return "sdc"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Analyzer computes MB-AVFs for one hardware structure from one workload
// run.
type Analyzer struct {
	// Name labels this analyzer's observability spans (typically the
	// workload name, e.g. "minife"). Empty is fine: spans fall back to a
	// generic label.
	Name string
	// Layout maps physical bits to logical words and protection domains.
	Layout *interleave.Layout
	// Tracker holds the structure's per-byte lifetime segments.
	Tracker *lifetime.Tracker
	// Graph is the solved dataflow graph of the run.
	Graph *dataflow.Graph
	// WordVersions is true when the tracker records one version for a
	// whole multi-byte word (register files); false when each byte has
	// its own version (caches).
	WordVersions bool
	// TotalCycles is the AVF denominator N: the length of the measured
	// execution.
	TotalCycles interval.Cycle
	// DetectionPreemptsSDC applies the case-study rule: when a detected
	// ACE region coexists with an SDC region in a fault group, detection
	// fires before the corruption propagates, converting the SDC into a
	// (true) DUE. Valid for structures read in lock-step groups, like
	// inter-thread interleaved VGPRs.
	DetectionPreemptsSDC bool
	// Parallelism bounds the worker goroutines used to sweep fault
	// groups. Zero means GOMAXPROCS; one forces a serial sweep. Results
	// are identical at any setting (fault groups are independent).
	Parallelism int
}

// Validate checks that the layout and tracker describe the same structure.
func (a *Analyzer) Validate() error {
	if a.Layout == nil || a.Tracker == nil || a.Graph == nil {
		return fmt.Errorf("core: analyzer needs layout, tracker, and graph")
	}
	if a.TotalCycles == 0 {
		return fmt.Errorf("core: TotalCycles is zero")
	}
	if a.Layout.Words != a.Tracker.Words() {
		return fmt.Errorf("core: layout has %d words, tracker %d", a.Layout.Words, a.Tracker.Words())
	}
	if a.Layout.WordBits != a.Tracker.BytesPerWord()*8 {
		return fmt.Errorf("core: layout words are %d bits, tracker words %d",
			a.Layout.WordBits, a.Tracker.BytesPerWord()*8)
	}
	return nil
}

// bitState is the resolved (uarch, live) classification of one bit over
// one time span.
type bitState struct {
	uarch, live bool
}

// byteState is the resolved classification of all eight bits of one byte
// slot over one time span: uarch ACEness is byte-uniform, program
// liveness per bit.
type byteState struct {
	uarch bool
	live  uint8
}

// byteCursor walks one byte slot's lifetime timeline in time order,
// exposing a piecewise-constant state. Gaps between segments are dead.
// The per-segment state is memoized so repeated spans within one segment
// cost nothing.
type byteCursor struct {
	segs     []lifetime.Seg
	idx      int
	byteIdx  int // byte within word (for word-granular versions)
	analyzer *Analyzer
	cached   int // segment index the memoized state belongs to (-1 none)
	state    byteState
}

// stateAt returns the byte's state during [t, next); next is the first
// cycle at which the state may change.
func (c *byteCursor) stateAt(t interval.Cycle) (byteState, interval.Cycle) {
	for c.idx < len(c.segs) && c.segs[c.idx].End <= t {
		c.idx++
	}
	if c.idx >= len(c.segs) {
		return byteState{}, c.analyzer.TotalCycles
	}
	seg := c.segs[c.idx]
	if t < seg.Start {
		return byteState{}, seg.Start
	}
	if c.cached != c.idx {
		c.state = c.analyzer.segStateByte(seg, c.byteIdx)
		c.cached = c.idx
	}
	return c.state, seg.End
}

// segStateByte classifies one lifetime segment of one byte slot.
func (a *Analyzer) segStateByte(seg lifetime.Seg, byteIdx int) byteState {
	var st byteState
	switch seg.Kind {
	case lifetime.SegDead:
		return st
	case lifetime.SegACE:
		st.uarch = true
	case lifetime.SegPending:
		// A dirty-evicted value matters only if it is consumed after the
		// eviction (the writeback corrupts the next level).
		st.uarch = a.Graph.ReadAfter(seg.Version, seg.End)
	}
	if st.uarch {
		vb := 0
		if a.WordVersions {
			vb = byteIdx
		}
		st.live = a.Graph.LiveByte(seg.Version, vb)
	}
	return st
}

// bit projects the byte-level state onto one bit of the byte: uarch
// ACEness is byte-uniform, liveness per bit.
func (bs byteState) bit(bit int) bitState {
	return bitState{uarch: bs.uarch, live: bs.live&(1<<bit) != 0}
}

// segState classifies one lifetime segment of one bit. It derives the
// answer from the byte-level classification — segStateByte is the single
// source of truth for the state walk; this is only a per-bit projection
// of it (used by the brute-force reference path the solver tests compare
// against).
func (a *Analyzer) segState(seg lifetime.Seg, byteIdx, bit int) bitState {
	return a.segStateByte(seg, byteIdx).bit(bit)
}

// Counters accumulates classified cycles.
type Counters struct {
	// DUE is the Section V model (equations 6-7): cycles during which any
	// region of the group is detected and uarch-ACE, ignoring SDC overlap.
	DUE interval.Cycle
	// TrueDUE, FalseDUE and SDC are the four-class precedence model of
	// Section VII-B.
	TrueDUE  interval.Cycle
	FalseDUE interval.Cycle
	SDC      interval.Cycle
}

func (c *Counters) add(o Counters) {
	c.DUE += o.DUE
	c.TrueDUE += o.TrueDUE
	c.FalseDUE += o.FalseDUE
	c.SDC += o.SDC
}

// Result is the MB-AVF of one (structure, scheme, fault mode) combination.
type Result struct {
	SchemeName  string
	ModeName    string
	ModeSize    int
	Groups      int
	Bits        int
	TotalCycles interval.Cycle
	// Group-level classified cycles summed over all fault groups.
	Counters Counters
	// BitUarch / BitLive are bit-level ACE cycle totals over all bits:
	// the raw single-bit ACE fractions used for normalization.
	BitUarch interval.Cycle
	BitLive  interval.Cycle
}

func (r *Result) denomGroups() float64 {
	return float64(r.Groups) * float64(r.TotalCycles)
}

// DUEMBAVF returns the detected-uncorrected-error MB-AVF (Section V
// model).
func (r *Result) DUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.DUE) / r.denomGroups()
}

// SDCMBAVF returns the silent-data-corruption MB-AVF.
func (r *Result) SDCMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.SDC) / r.denomGroups()
}

// TrueDUEMBAVF returns the true-DUE MB-AVF of the four-class model.
func (r *Result) TrueDUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.TrueDUE) / r.denomGroups()
}

// FalseDUEMBAVF returns the false-DUE MB-AVF of the four-class model.
func (r *Result) FalseDUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.FalseDUE) / r.denomGroups()
}

// BitAVF returns the structure's conservative single-bit ACE fraction
// (microarchitectural ACE bit-cycles over all bit-cycles) — the
// traditional unprotected SB-AVF used for normalization in the paper's
// figures.
func (r *Result) BitAVF() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitUarch) / (float64(r.Bits) * float64(r.TotalCycles))
}

// BitAVFLive returns the program-level (SDC) single-bit ACE fraction.
func (r *Result) BitAVFLive() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitLive) / (float64(r.Bits) * float64(r.TotalCycles))
}

// Analyze computes the MB-AVF of fault mode under scheme.
func (a *Analyzer) Analyze(scheme ecc.Scheme, mode bitgeom.FaultMode) (*Result, error) {
	series, err := a.AnalyzeWindowed(scheme, mode, 0)
	if err != nil {
		return nil, err
	}
	return &series.Total, nil
}

// AnalyzeScalar is Analyze on the per-bit scalar walk whatever the mode:
// the reference the word-packed sweep is bit-identical to. Production
// analysis goes through Analyze; this lets the paper-shape tests of the
// public API hold their shapes on the reference solver as well.
func (a *Analyzer) AnalyzeScalar(scheme ecc.Scheme, mode bitgeom.FaultMode) (*Result, error) {
	series, err := a.analyzeWindowed(scheme, mode, 0, false)
	if err != nil {
		return nil, err
	}
	return &series.Total, nil
}

// Series is a windowed MB-AVF time profile: Total plus one Result per
// window of Window cycles (the paper's Figures 5 and 8 plots).
type Series struct {
	Window  interval.Cycle
	Total   Result
	Windows []Result
}

// PublishGauges exposes the series' per-window DUE and SDC MB-AVF (plus
// the whole-run totals) as observability float gauges named
// avf.<structure>.<mode>.{due,sdc}.{total,w<i>}, so a scrape of the debug
// endpoint's /metrics sees the time-resolved vulnerability profile of
// every analyzed structure.
func (s *Series) PublishGauges(structure string) {
	if !obs.Enabled() {
		return
	}
	prefix := "avf." + structure + "." + s.Total.ModeName + "."
	obs.NewFloatGauge(prefix + "due.total").Set(s.Total.DUEMBAVF())
	obs.NewFloatGauge(prefix + "sdc.total").Set(s.Total.SDCMBAVF())
	for i := range s.Windows {
		w := &s.Windows[i]
		obs.NewFloatGauge(fmt.Sprintf("%sdue.w%03d", prefix, i)).Set(w.DUEMBAVF())
		obs.NewFloatGauge(fmt.Sprintf("%ssdc.w%03d", prefix, i)).Set(w.SDCMBAVF())
	}
}

// AnalyzeWindowed computes the MB-AVF of fault mode under scheme, also
// accumulating per-window counters when window > 0. The mode alone picks
// the solver: the word-packed row sweep serves every PackedEligible mode
// (all of the paper's Mx1 modes), and the per-bit scalar walk serves
// taller or wider patterns. Both are bit-identical where both apply.
func (a *Analyzer) AnalyzeWindowed(scheme ecc.Scheme, mode bitgeom.FaultMode, window interval.Cycle) (*Series, error) {
	return a.analyzeWindowed(scheme, mode, window, PackedEligible(mode))
}

// analyzeWindowed is AnalyzeWindowed on the solver that packed selects:
// the word-packed row sweep, which needs a PackedEligible mode, or the
// per-bit scalar walk. The equivalence tests pass packed=false to run
// the scalar walk on modes the packed solver also serves.
func (a *Analyzer) analyzeWindowed(scheme ecc.Scheme, mode bitgeom.FaultMode, window interval.Cycle, packed bool) (*Series, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	label := a.Name
	if label == "" {
		label = "mbavf"
	}
	sp := obs.StartSpan2("analyze:", label)
	defer sp.End()
	geom := a.Layout.Geom
	groups := geom.GroupCount(mode)
	if groups == 0 {
		return nil, fmt.Errorf("core: fault mode %s does not fit geometry %dx%d",
			mode.Name(), geom.Rows, geom.Cols)
	}
	obsAnalyses.Add(1)
	obsGroups.Add(uint64(groups))
	nWindows := 0
	if window > 0 {
		nWindows = int((a.TotalCycles + window - 1) / window)
	}
	mk := func() Result {
		return Result{
			SchemeName:  scheme.Name(),
			ModeName:    mode.Name(),
			ModeSize:    mode.Size(),
			Groups:      groups,
			Bits:        geom.Bits(),
			TotalCycles: a.TotalCycles,
		}
	}
	s := &Series{Window: window, Total: mk()}
	for i := 0; i < nWindows; i++ {
		r := mk()
		r.TotalCycles = min(window, a.TotalCycles-interval.Cycle(i)*window)
		s.Windows = append(s.Windows, r)
	}
	a.accumulateBits(s, window)

	// The packed path shards by wordline (its unit of work), the scalar
	// path by fault group.
	units := groups
	if packed {
		units = geom.Rows
	}
	sweep := func(sh *Series, lo, hi int) {
		if packed {
			a.sweepRowsPacked(scheme, mode, sh, window, lo, hi)
		} else {
			a.sweepGroups(scheme, mode, sh, window, lo, hi)
		}
	}

	workers := a.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, units)
	if workers <= 1 {
		sweep(s, 0, units)
		return s, nil
	}
	// Each worker sweeps a contiguous shard of work units into a
	// private shadow series; shards merge at the end.
	shadows := make([]*Series, workers)
	var wg sync.WaitGroup
	per := (units + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, units)
		if lo >= hi {
			break
		}
		sh := &Series{Window: window, Total: mk()}
		sh.Windows = make([]Result, nWindows)
		shadows[w] = sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(sh, lo, hi)
		}()
	}
	wg.Wait()
	for _, sh := range shadows {
		if sh == nil {
			continue
		}
		s.Total.Counters.add(sh.Total.Counters)
		for i := range sh.Windows {
			s.Windows[i].Counters.add(sh.Windows[i].Counters)
		}
	}
	return s, nil
}

// addCounters distributes span cycles of the given class into total and
// window counters.
func addCounters(s *Series, window interval.Cycle, cls Class, dueUnion bool, start, end interval.Cycle) {
	addOne := func(r *Result, n interval.Cycle) {
		if dueUnion {
			r.Counters.DUE += n
		}
		switch cls {
		case ClassTrueDUE:
			r.Counters.TrueDUE += n
		case ClassFalseDUE:
			r.Counters.FalseDUE += n
		case ClassSDC:
			r.Counters.SDC += n
		}
	}
	addOne(&s.Total, end-start)
	if window == 0 {
		return
	}
	for wi := int(start / window); ; wi++ {
		ws := interval.Cycle(wi) * window
		if ws >= end || wi >= len(s.Windows) {
			break
		}
		we := ws + window
		overlap := min(end, we) - max(start, ws)
		addOne(&s.Windows[wi], overlap)
	}
}

// addBitCycles distributes bit-level ACE cycles into total and windows,
// weighted by the number of uarch-ACE and live bits in the byte.
func addBitCycles(s *Series, window interval.Cycle, uarchBits, liveBits int, start, end interval.Cycle) {
	addOne := func(r *Result, n interval.Cycle) {
		r.BitUarch += interval.Cycle(uarchBits) * n
		r.BitLive += interval.Cycle(liveBits) * n
	}
	addOne(&s.Total, end-start)
	if window == 0 {
		return
	}
	for wi := int(start / window); ; wi++ {
		ws := interval.Cycle(wi) * window
		if ws >= end || wi >= len(s.Windows) {
			break
		}
		we := ws + window
		overlap := min(end, we) - max(start, ws)
		addOne(&s.Windows[wi], overlap)
	}
}

// accumulateBits sums raw per-bit ACE time (the SB-AVF numerators).
func (a *Analyzer) accumulateBits(s *Series, window interval.Cycle) {
	for w := 0; w < a.Tracker.Words(); w++ {
		for b := 0; b < a.Tracker.BytesPerWord(); b++ {
			for _, seg := range a.Tracker.Segments(w, b) {
				end := min(seg.End, a.TotalCycles)
				if end <= seg.Start {
					continue
				}
				st := a.segStateByte(seg, b)
				if !st.uarch {
					continue
				}
				liveBits := bits.OnesCount8(st.live)
				addBitCycles(s, window, 8, liveBits, seg.Start, end)
			}
		}
	}
}

// groupBit locates one group member bit: an index into the group's
// deduplicated byte-cursor array plus a bit mask within that byte.
type groupBit struct {
	cur  int
	mask uint8
}

// region is one overlapped region: the bits a fault group shares with one
// protection domain.
type region struct {
	reaction ecc.Reaction
	bits     []groupBit
	nbits    int
}

type byteKey struct{ word, byteIdx int }

// sweepGroups classifies fault groups [lo, hi) over time, accumulating
// into s. Group bits sharing a byte slot share one memoized cursor.
func (a *Analyzer) sweepGroups(scheme ecc.Scheme, mode bitgeom.FaultMode, s *Series, window interval.Cycle, lo, hi int) {
	geom := a.Layout.Geom
	msize := mode.Size()
	var merges uint64
	observing := obs.Enabled()
	var groupBits, mergeChain obs.LocalHist

	cursors := make([]byteCursor, 0, msize)
	regions := make([]region, 0, msize)
	domOf := make(map[int]int, msize)     // domain -> region index
	curOf := make(map[byteKey]int, msize) // byte slot -> cursor index
	bitBuf := make([]bitgeom.BitPos, 0, msize)

	for gi := lo; gi < hi; gi++ {
		bitBuf = geom.GroupBits(mode, gi, bitBuf[:0])
		regions = regions[:0]
		cursors = cursors[:0]
		clear(domOf)
		clear(curOf)
		for _, pos := range bitBuf {
			wb, dom := a.Layout.Map(pos)
			byteIdx := wb.Bit / 8
			key := byteKey{wb.Word, byteIdx}
			ci, ok := curOf[key]
			if !ok {
				ci = len(cursors)
				cursors = append(cursors, byteCursor{
					segs:     a.Tracker.Segments(wb.Word, byteIdx),
					byteIdx:  byteIdx,
					analyzer: a,
					cached:   -1,
				})
				curOf[key] = ci
			}
			ri, ok := domOf[dom]
			if !ok {
				ri = len(regions)
				regions = append(regions, region{})
				domOf[dom] = ri
			}
			regions[ri].bits = append(regions[ri].bits, groupBit{cur: ci, mask: 1 << (wb.Bit % 8)})
			regions[ri].nbits++
		}
		for ri := range regions {
			regions[ri].reaction = scheme.React(regions[ri].nbits)
		}
		chain := a.sweepOneGroup(cursors, regions, s, window)
		merges += chain
		if observing {
			groupBits.Observe(uint64(len(bitBuf)))
			mergeChain.Observe(chain)
		}
	}
	obsMerges.Add(merges)
	groupBits.FlushTo(obsGroupBits)
	mergeChain.FlushTo(obsMergeChain)
}

// sweepOneGroup walks one group's merged timeline, classifying each
// span. It returns the number of interval-merge steps taken (timeline
// points at which the cursors' piecewise-constant states were combined),
// the engine-work measure the observability layer reports.
func (a *Analyzer) sweepOneGroup(cursors []byteCursor, regions []region, s *Series, window interval.Cycle) uint64 {
	states := make([]byteState, len(cursors))
	var merges uint64
	t := interval.Cycle(0)
	for t < a.TotalCycles {
		merges++
		next := a.TotalCycles
		for i := range cursors {
			st, n := cursors[i].stateAt(t)
			states[i] = st
			if n < next {
				next = n
			}
		}
		if next <= t {
			break // defensive: no progress possible
		}
		var anyDetACE, anyTrueDUE, anySDC bool
		for _, r := range regions {
			if r.reaction == ecc.ReactCorrected || r.reaction == ecc.ReactNone {
				continue
			}
			var uarch, live bool
			for _, gb := range r.bits {
				st := states[gb.cur]
				uarch = uarch || st.uarch
				live = live || st.live&gb.mask != 0
			}
			switch r.reaction {
			case ecc.ReactDetected:
				if uarch {
					anyDetACE = true
					if live {
						anyTrueDUE = true
					}
				}
			case ecc.ReactUndetected:
				if live {
					anySDC = true
				}
			}
		}
		cls := ClassUnACE
		if a.DetectionPreemptsSDC && anyDetACE {
			if anyTrueDUE || anySDC {
				cls = ClassTrueDUE
			} else {
				cls = ClassFalseDUE
			}
		} else {
			switch {
			case anySDC:
				cls = ClassSDC
			case anyTrueDUE:
				cls = ClassTrueDUE
			case anyDetACE:
				cls = ClassFalseDUE
			}
		}
		if cls != ClassUnACE || anyDetACE {
			addCounters(s, window, cls, anyDetACE, t, next)
		}
		t = next
	}
	return merges
}

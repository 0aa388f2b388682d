package core

import (
	"errors"
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/interleave"
	"mbavf/internal/sim"
)

// ErrBadOption marks a query the caller got wrong: an unknown structure
// or scheme, an interleaving style the structure does not support, a
// factor the structure's geometry cannot take, or a fault mode that does
// not fit one wordline. It is the module's one bad-query error: the root
// package exports it as mbavf.ErrBadOption, and the serving layer maps it
// to a client error with errors.Is.
var ErrBadOption = errors.New("mbavf: bad option")

// Structure names an analyzable hardware structure of a simulated run.
type Structure string

// Analyzable structures.
const (
	// L1 is compute unit 0's L1 data array.
	L1 Structure = "l1"
	// L2 is the shared L2 data array.
	L2 Structure = "l2"
	// VGPR is compute unit 0's vector register file.
	VGPR Structure = "vgpr"
)

// Style names a bit-interleaving style (see package interleave). Caches
// take Logical, WayPhysical and IndexPhysical; the register file takes
// IntraThread and InterThread.
type Style string

// Interleaving styles.
const (
	Logical       Style = "logical"
	WayPhysical   Style = "way-physical"
	IndexPhysical Style = "index-physical"
	IntraThread   Style = "intra-thread"
	InterThread   Style = "inter-thread"
)

// vgprRegBits is the width of one vector register instance.
const vgprRegBits = 32

// NewAnalyzer is the one rule that maps a structure of run m and an
// interleaving (style, factor) to an analyzer: the layout over m's
// geometry, WordVersions (a register file versions whole words, a cache
// each byte), DetectionPreemptsSDC (inter-thread register files are read
// in lock-step groups, so a detection fires before an SDC propagates)
// and TotalCycles. It reads only m's geometry and cycle count, never its
// trackers or graph: the caller attaches Tracker and Graph (and Name)
// afterwards, so a malformed query against a lazily decoded run fails
// before any section decodes. Every error wraps ErrBadOption.
func NewAnalyzer(m *sim.Measurements, st Structure, style Style, factor int) (*Analyzer, error) {
	a := &Analyzer{TotalCycles: m.Cycles}
	lineBits := m.LineBytes * 8
	var err error
	switch st {
	case L1, L2:
		sets, ways := m.L1Slots()
		if st == L2 {
			sets, ways = m.L2Slots()
		}
		switch style {
		case Logical:
			a.Layout, err = interleave.Logical(sets*ways, lineBits, factor)
		case WayPhysical:
			a.Layout, err = interleave.WayPhysical(sets, ways, lineBits, factor)
		case IndexPhysical:
			a.Layout, err = interleave.IndexPhysical(sets, ways, lineBits, factor)
		default:
			return nil, fmt.Errorf("%w: interleaving style %q not valid for caches", ErrBadOption, style)
		}
	case VGPR:
		a.WordVersions = true
		switch style {
		case IntraThread:
			a.Layout, err = interleave.IntraThread(m.VGPRThreads, m.VGPRRegs, vgprRegBits, factor)
		case InterThread:
			a.Layout, err = interleave.InterThread(m.VGPRThreads, m.VGPRRegs, vgprRegBits, factor)
			a.DetectionPreemptsSDC = true
		default:
			return nil, fmt.Errorf("%w: interleaving style %q not valid for register files", ErrBadOption, style)
		}
	default:
		return nil, fmt.Errorf("%w: unknown structure %q (have l1, l2, vgpr)", ErrBadOption, st)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	return a, nil
}

// Mx1 returns the fault mode of modeBits adjacent bits along one
// wordline of the analyzer's layout. A width outside [1, Cols] is
// rejected with ErrBadOption before the mode is built, so a caller's
// input never sizes an allocation beyond one wordline.
func (a *Analyzer) Mx1(modeBits int) (bitgeom.FaultMode, error) {
	if cols := a.Layout.Geom.Cols; modeBits < 1 || modeBits > cols {
		return bitgeom.FaultMode{}, fmt.Errorf("%w: fault mode %dx1 does not fit the %d-bit wordlines of %s",
			ErrBadOption, modeBits, cols, a.Layout.Name())
	}
	return bitgeom.Mx1(modeBits), nil
}

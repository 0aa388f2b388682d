package mbavf

import (
	"fmt"

	"mbavf/internal/core"
	"mbavf/internal/dataflow"
	"mbavf/internal/faultrate"
	"mbavf/internal/lifetime"
)

// ErrBadOption marks a request that is well-formed Go but semantically
// invalid: an unknown structure or scheme, an interleaving style that the
// structure does not support, an interleaving factor that is not positive
// or does not divide the structure's geometry, a fault mode that is not
// positive or is wider than a wordline, or a negative experiment option.
// Callers (in particular the HTTP serving layer) distinguish it from
// infrastructure failures with errors.Is and map it to a client error.
var ErrBadOption = core.ErrBadOption

// Structure names an analyzable hardware structure. It is the single
// dispatch point of the unified query API: every (structure, scheme,
// interleaving, mode) combination goes through Run.AVF / Run.SER instead
// of one method per structure.
type Structure string

// Analyzable structures.
const (
	// L1 is compute unit 0's L1 data array.
	L1 = Structure(core.L1)
	// L2 is the shared L2 data array.
	L2 = Structure(core.L2)
	// VGPR is compute unit 0's vector register file.
	VGPR = Structure(core.VGPR)
)

// Structures lists every analyzable structure.
func Structures() []Structure { return []Structure{L1, L2, VGPR} }

// ParseStructure maps a wire name ("l1", "l2", "vgpr") to a Structure.
func ParseStructure(s string) (Structure, error) {
	for _, st := range Structures() {
		if string(st) == s {
			return st, nil
		}
	}
	return "", fmt.Errorf("%w: unknown structure %q (have l1, l2, vgpr)", ErrBadOption, s)
}

// Styles returns the interleaving styles the structure supports: the
// cache styles for L1/L2, the register-file styles for VGPR.
func (st Structure) Styles() []Style {
	switch st {
	case VGPR:
		return []Style{StyleIntraThread, StyleInterThread}
	default:
		return []Style{StyleLogical, StyleWayPhysical, StyleIndexPhysical}
	}
}

// Schemes lists the supported protection schemes.
func Schemes() []Scheme { return []Scheme{NoProtection, Parity, SECDED, DECTED} }

// validateQuery is the one shared parameter check behind every query
// entry point (total, windowed, SER, policy and locality): the
// interleaving degree and the fault-mode width must both be positive.
// core.NewAnalyzer additionally rejects a factor that does not divide the
// structure's geometry, and Analyzer.Mx1 a mode wider than a wordline.
func validateQuery(il Interleaving, modeBits int) error {
	if il.Factor < 1 {
		return fmt.Errorf("%w: interleaving factor %d must be >= 1", ErrBadOption, il.Factor)
	}
	if modeBits < 1 {
		return fmt.Errorf("%w: fault mode must span at least 1 bit (got %d)", ErrBadOption, modeBits)
	}
	return nil
}

// graph returns the run's solved liveness graph, decoding it from the
// backing store artifact on first use for store-loaded runs.
func (r *Run) graph() (*dataflow.Graph, error) {
	if r.m.Graph != nil {
		return r.m.Graph, nil
	}
	if r.art != nil {
		return r.art.Graph()
	}
	return nil, fmt.Errorf("mbavf: run has no liveness graph")
}

// tracker returns one structure's lifetime tracker, decoding it from
// the backing store artifact on first use for store-loaded runs.
func (r *Run) tracker(st Structure) (*lifetime.Tracker, error) {
	switch st {
	case L1:
		if r.m.L1Tracker != nil {
			return r.m.L1Tracker, nil
		}
		if r.art != nil {
			return r.art.L1()
		}
	case L2:
		if r.m.L2Tracker != nil {
			return r.m.L2Tracker, nil
		}
		if r.art != nil {
			return r.art.L2()
		}
	case VGPR:
		if r.m.VGPRTracker != nil {
			return r.m.VGPRTracker, nil
		}
		if r.art != nil {
			return r.art.VGPR()
		}
	}
	return nil, fmt.Errorf("mbavf: run has no %s instrumentation", st)
}

// analyzerFor builds the MB-AVF analyzer of one structure under one
// interleaving layout — the single construction path shared by every
// analysis entry point: totals, series, SER, policies and locality. The
// structure × style rule itself is core.NewAnalyzer's, which the
// experiments share; this attaches the run's tracker and graph.
func (r *Run) analyzerFor(st Structure, il Interleaving) (*core.Analyzer, error) {
	a, err := core.NewAnalyzer(r.m, core.Structure(st), core.Style(il.Style), il.Factor)
	if err != nil {
		return nil, err
	}
	// The layout is validated before the (possibly lazily decoded)
	// measurements are touched, so malformed queries against
	// store-loaded runs never pay for a section decode.
	if a.Graph, err = r.graph(); err != nil {
		return nil, err
	}
	if a.Tracker, err = r.tracker(st); err != nil {
		return nil, err
	}
	return a, nil
}

// AVF measures the MB-AVF of an Mx1 fault mode (modeBits adjacent bits
// along a wordline) in the given structure under the given protection
// scheme and interleaving layout. It is the one entry point for every
// structure, and the analysis service's query routes answer through it;
// for the VGPR with inter-thread interleaving it applies the paper's
// detection-preempts-SDC rule (registers of a 16-thread group are read
// in lock-step, so an adjacent thread's DUE fires before an SDC
// propagates).
func (r *Run) AVF(st Structure, scheme Scheme, il Interleaving, modeBits int) (AVF, error) {
	return r.avf(st, scheme, il, modeBits, (*core.Analyzer).Analyze)
}

func (r *Run) avf(st Structure, scheme Scheme, il Interleaving, modeBits int, solve solver) (AVF, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return AVF{}, err
	}
	a, err := r.analyzerFor(st, il)
	if err != nil {
		return AVF{}, err
	}
	return r.analyze(a, scheme, modeBits, solve)
}

// AVFSeries measures the structure's MB-AVF over time, split into the
// given number of windows.
func (r *Run) AVFSeries(st Structure, scheme Scheme, il Interleaving, modeBits, windows int) (AVFSeries, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return AVFSeries{}, err
	}
	a, err := r.analyzerFor(st, il)
	if err != nil {
		return AVFSeries{}, err
	}
	return seriesOf(a, scheme, modeBits, windows)
}

// SER rolls the structure's per-mode AVFs into SDC and DUE soft error
// rates using the paper's Table III raw fault rates (1x1 through 8x1,
// total rate normalized to 100).
func (r *Run) SER(st Structure, scheme Scheme, il Interleaving) (SER, error) {
	var out SER
	for _, mr := range faultrate.TableIII() {
		avf, err := r.AVF(st, scheme, il, mr.Width)
		if err != nil {
			return SER{}, err
		}
		out.SDC += faultrate.SER(mr.FIT, avf.SDC)
		out.DUE += faultrate.SER(mr.FIT, avf.TrueDUE+avf.FalseDUE)
	}
	return out, nil
}

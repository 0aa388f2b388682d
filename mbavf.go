// Package mbavf computes architectural vulnerability factors for spatial
// multi-bit transient faults (MB-AVFs), reproducing the methodology of
// "Calculating Architectural Vulnerability Factors for Spatial Multi-Bit
// Transient Faults" (MICRO 2014).
//
// The library couples an execution-driven APU simulator (a 4-compute-unit
// GPU with L1/L2 caches and a vector register file) with an ACE-analysis
// engine that classifies every fault group of a spatial fault mode —
// under a protection scheme and a bit-interleaving layout — as unACE,
// true DUE, false DUE, or SDC, cycle by cycle.
//
// Typical use:
//
//	run, err := mbavf.RunWorkload("minife")
//	avf, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: mbavf.StyleIndexPhysical, Factor: 2}, 2)
//	fmt.Println(avf.DUE, avf.SDC)
//
// All workloads execute on the bundled simulator; see the examples
// directory for complete programs and cmd/mbavf-exp for the paper's
// tables and figures.
package mbavf

import (
	"context"
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/workloads"
)

// Scheme selects an error-protection code for each protection domain.
type Scheme string

// Supported protection schemes.
const (
	NoProtection Scheme = "none"
	Parity       Scheme = "parity"
	SECDED       Scheme = "sec-ded"
	DECTED       Scheme = "dec-ted"
)

func (s Scheme) impl() (ecc.Scheme, error) {
	switch s {
	case NoProtection:
		return ecc.None{}, nil
	case Parity:
		return ecc.Parity{}, nil
	case SECDED:
		return ecc.SECDED{}, nil
	case DECTED:
		return ecc.DECTED{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q", ErrBadOption, s)
	}
}

// CheckBitOverhead returns the scheme's relative check-bit area overhead
// for the given data-word width (e.g. SEC-DED over 32-bit words: 21.9%).
func (s Scheme) CheckBitOverhead(dataBits int) (float64, error) {
	impl, err := s.impl()
	if err != nil {
		return 0, err
	}
	return ecc.Overhead(impl, dataBits), nil
}

// Style selects how logical data words map onto physically adjacent bits.
type Style string

// Supported interleaving styles. Cache structures accept Logical,
// WayPhysical and IndexPhysical; the register file accepts IntraThread
// (rx) and InterThread (tx).
const (
	StyleLogical       = Style(core.Logical)
	StyleWayPhysical   = Style(core.WayPhysical)
	StyleIndexPhysical = Style(core.IndexPhysical)
	StyleIntraThread   = Style(core.IntraThread)
	StyleInterThread   = Style(core.InterThread)
)

// Interleaving is a bit-interleaving configuration: a style plus a degree
// (1, 2 or 4 in the paper's studies).
type Interleaving struct {
	Style  Style
	Factor int
}

// AVF is the vulnerability of one (structure, scheme, interleaving, fault
// mode) combination measured over a workload run. All values are
// fractions in [0, 1].
type AVF struct {
	// DUE is the detected-uncorrected-error MB-AVF (the paper's Section V
	// model: union of detected-and-ACE region time).
	DUE float64
	// SDC, TrueDUE and FalseDUE are the four-class model of Section VII.
	SDC      float64
	TrueDUE  float64
	FalseDUE float64
	// SBAVF is the structure's raw single-bit ACE fraction
	// (microarchitectural), the normalization basis of the paper's
	// figures; SBAVFLive applies program-level masking.
	SBAVF     float64
	SBAVFLive float64
	// Groups is the number of fault groups of the mode in the structure;
	// Cycles is the measurement window.
	Groups int
	Cycles uint64
}

func fromResult(r *core.Result) AVF {
	return AVF{
		DUE:       r.DUEMBAVF(),
		SDC:       r.SDCMBAVF(),
		TrueDUE:   r.TrueDUEMBAVF(),
		FalseDUE:  r.FalseDUEMBAVF(),
		SBAVF:     r.BitAVF(),
		SBAVFLive: r.BitAVFLive(),
		Groups:    r.Groups,
		Cycles:    r.TotalCycles,
	}
}

// Run is a completed, instrumented simulation of one workload, ready for
// AVF analysis under any number of protection configurations. A Run is
// self-contained: it can be serialized with Save and revived with LoadRun
// (or recorded into a RunStore) without re-simulating — analysis over the
// rehydrated artifact is bit-identical to analysis over the original.
type Run struct {
	m *sim.Measurements
	// art, when non-nil, backs a run revived from a RunStore: m carries
	// the metadata (names, cycle counts, geometry) and the trackers and
	// graph decode lazily from the artifact on first use, so a query
	// pays only for the sections it touches. Laziness is memoized and
	// concurrency-safe inside the artifact, preserving the read-only
	// sharing contract analyses rely on.
	art *store.Artifact
}

func newRunFromSession(s *sim.Session) *Run {
	return &Run{m: s.Measurements()}
}

// Workloads lists the bundled benchmark names.
func Workloads() []string { return workloads.Names() }

// WorkloadDescription returns the one-line description of a bundled
// workload's access pattern.
func WorkloadDescription(name string) (string, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return "", err
	}
	return w.Description, nil
}

// RunWorkload executes the named workload on the default APU
// configuration with full instrumentation.
func RunWorkload(name string) (*Run, error) {
	return RunWorkloadContext(context.Background(), name)
}

// RunWorkloadContext is RunWorkload under a context: cancelling ctx (or
// exceeding its deadline) aborts the simulation between instructions and
// returns the context's error. Long-running servers use it to bound
// simulation time per request; the CLI entry points keep RunWorkload.
func RunWorkloadContext(ctx context.Context, name string) (*Run, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	s, err := sim.ExecuteContext(ctx, w, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return newRunFromSession(s), nil
}

// Cycles returns the run's duration in simulated cycles.
func (r *Run) Cycles() uint64 { return r.m.Cycles }

// Instructions returns the dynamic wavefront instruction count.
func (r *Run) Instructions() uint64 { return r.m.Instructions }

// Workload returns the name of the workload that produced the run (empty
// for runs loaded from artifacts recorded before names were stored).
func (r *Run) Workload() string { return r.m.Workload }

// solver runs one fault-mode analysis. The public entry points pass
// (*core.Analyzer).Analyze, where the mode picks the solver; the
// paper-shape tests also pass (*core.Analyzer).AnalyzeScalar.
type solver func(a *core.Analyzer, scheme ecc.Scheme, mode bitgeom.FaultMode) (*core.Result, error)

func (r *Run) analyze(a *core.Analyzer, scheme Scheme, modeBits int, solve solver) (AVF, error) {
	impl, err := scheme.impl()
	if err != nil {
		return AVF{}, err
	}
	mode, err := a.Mx1(modeBits)
	if err != nil {
		return AVF{}, err
	}
	res, err := solve(a, impl, mode)
	if err != nil {
		return AVF{}, err
	}
	return fromResult(res), nil
}

// SER is a soft-error-rate roll-up over all fault modes of Table III.
type SER struct {
	// SDC and DUE are FIT-weighted rates (raw mode rate x measured AVF,
	// summed over 1x1..8x1).
	SDC float64
	DUE float64
}

package core

// Scalar-vs-packed equivalence on simulated workloads. The randomized
// harness (solver_equiv_test.go) covers every scheme x mode shape on
// synthetic timelines; this suite pins the same == identity on the real
// lifetime and liveness histories behind the root package's paper-shape
// and policy limit-equivalence suites, at every point those suites read.
// Production answers all of those points on the packed solver, so this
// is where the scalar walk is checked against them.

import (
	"fmt"
	"sync"
	"testing"

	"mbavf/internal/ecc"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

var (
	runsMu sync.Mutex
	runs   = map[string]*sim.Measurements{}
)

// raceEnabled is set by race_test.go in -race builds. The race detector
// slows the scalar walk about fiftyfold, so the real-workload suite runs
// only in the race-free pass; TestSolverConcurrentPaths is the solver's
// race-detector leg.
var raceEnabled bool

// simulated returns the memoized instrumented run of one bundled
// workload on the default machine.
func simulated(tb testing.TB, name string) *sim.Measurements {
	tb.Helper()
	runsMu.Lock()
	defer runsMu.Unlock()
	if m, ok := runs[name]; ok {
		return m
	}
	w, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sim.Execute(w, sim.DefaultConfig())
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	runs[name] = s.Measurements()
	return runs[name]
}

// measuredAnalyzer builds the analyzer of one structure of m the way the
// public API does: NewAnalyzer's layout rule plus m's tracker and graph.
func measuredAnalyzer(tb testing.TB, m *sim.Measurements, st Structure, style Style, factor int) *Analyzer {
	tb.Helper()
	a, err := NewAnalyzer(m, st, style, factor)
	if err != nil {
		tb.Fatal(err)
	}
	a.Graph = m.Graph
	switch st {
	case L1:
		a.Tracker = m.L1Tracker
	case L2:
		a.Tracker = m.L2Tracker
	case VGPR:
		a.Tracker = m.VGPRTracker
	}
	return a
}

// solverPoint is one (structure, layout, scheme) configuration and the
// Mx1 widths read under it.
type solverPoint struct {
	st     Structure
	style  Style
	factor int
	scheme ecc.Scheme
	modes  []int
}

// shapePoints are the L1 points the paper-shape suite reads on minife,
// matmul and srad: the SB-bounds, interleaving-order, monotonicity,
// SDC-plateau and SEC-DED-vs-parity shapes.
func shapePoints() []solverPoint {
	return []solverPoint{
		{L1, Logical, 2, ecc.Parity{}, []int{2}},
		{L1, WayPhysical, 2, ecc.Parity{}, []int{2}},
		{L1, IndexPhysical, 2, ecc.Parity{}, []int{2}},
		{L1, Logical, 4, ecc.Parity{}, []int{4}},
		{L1, WayPhysical, 4, ecc.Parity{}, []int{2, 3, 4}},
		{L1, WayPhysical, 2, ecc.SECDED{}, []int{6, 8}},
		{L1, WayPhysical, 1, ecc.Parity{}, []int{1, 2}},
		{L1, WayPhysical, 1, ecc.SECDED{}, []int{2, 3}},
	}
}

// policyPoints are the points the policy limit-equivalence suite reads
// on vecadd: every structure under one physical interleaving, parity and
// SEC-DED, and every Table III width.
func policyPoints() []solverPoint {
	all := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var out []solverPoint
	for _, scheme := range []ecc.Scheme{ecc.Parity{}, ecc.SECDED{}} {
		out = append(out,
			solverPoint{L1, WayPhysical, 2, scheme, all},
			solverPoint{L2, WayPhysical, 2, scheme, all},
			solverPoint{VGPR, InterThread, 2, scheme, all})
	}
	return out
}

// TestScalarMatchesPackedOnShapeWorkloads solves every point of the
// paper-shape and policy suites on both solvers and requires == results.
func TestScalarMatchesPackedOnShapeWorkloads(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates full workloads and solves them on the scalar walk; skipped in -short and -race")
	}
	suites := []struct {
		workloads []string
		points    []solverPoint
	}{
		{[]string{"minife", "matmul", "srad"}, shapePoints()},
		{[]string{"vecadd"}, policyPoints()},
	}
	for _, suite := range suites {
		for _, name := range suite.workloads {
			m := simulated(t, name)
			for _, p := range suite.points {
				a := measuredAnalyzer(t, m, p.st, p.style, p.factor)
				for _, bits := range p.modes {
					label := fmt.Sprintf("%s %s %s %s %dx1", name, p.st, a.Layout.Name(), p.scheme.Name(), bits)
					mode, err := a.Mx1(bits)
					if err != nil {
						t.Fatal(err)
					}
					if !PackedEligible(mode) {
						t.Fatalf("%s: mode is not packed-eligible", label)
					}
					packed, err := a.Analyze(p.scheme, mode)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					scalar, err := a.analyzeWindowed(p.scheme, mode, 0, false)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if *packed != scalar.Total {
						t.Errorf("%s: solver mismatch\npacked %+v\nscalar %+v", label, *packed, scalar.Total)
					}
				}
			}
		}
	}
}

// BenchmarkSolve measures one MB-AVF analysis pass of minife per
// structure and fault mode on both solvers: the word-packed row sweep
// ("packed", what production runs for these modes) and the per-bit
// scalar walk ("scalar"). The two are bit-identical, so the time ratio
// on a case is the packed solver's speedup on that analysis. The
// l1/way-x2/2x1 case is the Figure 4 analysis path.
func BenchmarkSolve(b *testing.B) {
	m := simulated(b, "minife")
	cases := []struct {
		name   string
		st     Structure
		style  Style
		factor int
		scheme ecc.Scheme
		bits   int
	}{
		{"l1/way-x2/2x1", L1, WayPhysical, 2, ecc.Parity{}, 2},
		{"l1/logical-x2/2x1", L1, Logical, 2, ecc.Parity{}, 2},
		{"l1/way-x4/4x1", L1, WayPhysical, 4, ecc.SECDED{}, 4},
		{"l2/way-x2/2x1", L2, WayPhysical, 2, ecc.Parity{}, 2},
		{"vgpr/tx-x4/4x1", VGPR, InterThread, 4, ecc.Parity{}, 4},
	}
	for _, c := range cases {
		a := measuredAnalyzer(b, m, c.st, c.style, c.factor)
		mode, err := a.Mx1(c.bits)
		if err != nil {
			b.Fatal(err)
		}
		for _, packed := range []bool{true, false} {
			solver := "scalar"
			if packed {
				solver = "packed"
			}
			b.Run(c.name+"/"+solver, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.analyzeWindowed(c.scheme, mode, 0, packed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

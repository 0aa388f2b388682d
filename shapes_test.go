package mbavf

// TestPaperShapes is the paper-shape regression suite: every qualitative
// claim listed under "Expected shape" in DESIGN.md §4, asserted on a
// reduced workload set through the public API. It is a tier-2 test —
// skipped in -short (the -race CI leg) because each workload needs a
// full instrumented simulation — and exists so a refactor of the engine,
// the interleaver, or the ECC reaction model cannot silently bend the
// physics the paper predicts.

import (
	"fmt"
	"sync"
	"testing"

	"mbavf/internal/core"
)

// shapeWorkloads is the reduced benchmark set: one FEM solver, one dense
// kernel, one stencil — enough access-pattern diversity to exercise every
// invariant without simulating the full suite.
var shapeWorkloads = []string{"minife", "matmul", "srad"}

var (
	shapeOnce sync.Once
	shapeRuns map[string]*Run
	shapeErr  error
)

// shapeRun returns the cached instrumented run of one shape workload.
func shapeRun(t *testing.T, name string) *Run {
	t.Helper()
	shapeOnce.Do(func() {
		shapeRuns = make(map[string]*Run, len(shapeWorkloads))
		for _, n := range shapeWorkloads {
			r, err := RunWorkload(n)
			if err != nil {
				shapeErr = fmt.Errorf("%s: %w", n, err)
				return
			}
			shapeRuns[n] = r
		}
	})
	if shapeErr != nil {
		t.Fatal(shapeErr)
	}
	return shapeRuns[name]
}

func l1avf(t *testing.T, r *Run, solve solver, scheme Scheme, style Style, factor, modeBits int) AVF {
	t.Helper()
	avf, err := r.avf(L1, scheme, Interleaving{Style: style, Factor: factor}, modeBits, solve)
	if err != nil {
		t.Fatal(err)
	}
	return avf
}

func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape suite simulates full workloads; skipped in -short (the -race CI leg)")
	}

	// Every shape must hold on both solver paths: the packed word-parallel
	// solver, which the public API picks for every mode below (all Mx1
	// with M <= 8), and the scalar per-bit reference it is proven
	// bit-identical to. The workload runs are cached (shapeRun), so the
	// second pass costs only re-analysis.
	t.Run("packed", func(t *testing.T) { paperShapes(t, (*core.Analyzer).Analyze) })
	t.Run("scalar", func(t *testing.T) { paperShapes(t, (*core.Analyzer).AnalyzeScalar) })
}

func paperShapes(t *testing.T, solve solver) {
	// MB-AVF ∈ [1x, Mx] SB-AVF: an Mx1 fault group is ACE when any of its
	// M bits is ACE, so with full detection (interleave degree M under
	// parity leaves one bit per domain) the group-level AVF is bounded by
	// the single-bit AVF on one side and M times it on the other.
	t.Run("mbavf-within-sb-bounds", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			for _, m := range []int{2, 4} {
				for _, style := range []Style{StyleLogical, StyleWayPhysical} {
					avf := l1avf(t, r, solve, Parity, style, m, m)
					if avf.SBAVF <= 0 {
						t.Fatalf("%s: SB-AVF = %v, want > 0", name, avf.SBAVF)
					}
					// The upper bound carries a hair of slack: edge rows of
					// the physical geometry yield slightly fewer than
					// Bits/M fault groups, so the two AVFs' denominators
					// differ by a sub-0.1% factor.
					ratio := avf.DUE / avf.SBAVF
					if ratio < 1-1e-9 || ratio > float64(m)*1.001 {
						t.Errorf("%s %s %dx1: MB-AVF/SB-AVF = %v outside [1, %d]",
							name, style, m, ratio, m)
					}
				}
			}
		}
	})

	// Logical interleaving spreads each fault group across the bits of one
	// logical word, maximizing ACE locality — it must yield the lowest
	// MB-AVF of the three cache layouts (Figure 4).
	t.Run("logical-interleaving-lowest", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			logical := l1avf(t, r, solve, Parity, StyleLogical, 2, 2).DUE
			way := l1avf(t, r, solve, Parity, StyleWayPhysical, 2, 2).DUE
			idx := l1avf(t, r, solve, Parity, StyleIndexPhysical, 2, 2).DUE
			if logical > way+1e-9 || logical > idx+1e-9 {
				t.Errorf("%s: logical %v should be lowest (way %v, index %v)",
					name, logical, way, idx)
			}
		}
	})

	// A larger fault mode covers a superset of bits per group, so the
	// group-ACE union — and with it the MB-AVF — can only grow with mode
	// size (Figure 6's rising curves).
	t.Run("monotone-in-mode-size", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			prev := -1.0
			for _, m := range []int{2, 3, 4} {
				due := l1avf(t, r, solve, Parity, StyleWayPhysical, 4, m).DUE
				if due < prev-1e-9 {
					t.Errorf("%s: DUE MB-AVF fell from %v to %v at %dx1", name, prev, due, m)
				}
				prev = due
			}
		}
	})

	// Under SEC-DED with x2 interleaving, 6x1 is the first mode whose
	// regions (3 bits) all defeat detection; growing to 8x1 adds bits to
	// already-undetected groups, so the SDC MB-AVF plateaus (Figure 9).
	t.Run("sdc-plateau-6x1-to-8x1", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			sdc6 := l1avf(t, r, solve, SECDED, StyleWayPhysical, 2, 6).SDC
			sdc8 := l1avf(t, r, solve, SECDED, StyleWayPhysical, 2, 8).SDC
			if sdc6 <= 0 {
				t.Fatalf("%s: 6x1 SEC-DED x2 SDC = %v, want > 0", name, sdc6)
			}
			if ratio := sdc8 / sdc6; ratio < 0.75 || ratio > 1.5 {
				t.Errorf("%s: SDC should plateau 6x1 (%v) -> 8x1 (%v), ratio %v",
					name, sdc6, sdc8, ratio)
			}
		}
	})

	// Section VI-C equivalence at interleave degree 1: SEC-DED absorbs one
	// bit of the fault (correction), so Mx1 under SEC-DED reacts like
	// (M-1)x1 under parity. Detected case: 2x1 SEC-DED ≈ 1x1 parity.
	// Undetected case: 3x1 SEC-DED and 2x1 parity both defeat detection,
	// so both DUE MB-AVFs must vanish exactly.
	t.Run("secded-m-equals-parity-m-minus-1", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			s2 := l1avf(t, r, solve, SECDED, StyleWayPhysical, 1, 2).DUE
			p1 := l1avf(t, r, solve, Parity, StyleWayPhysical, 1, 1).DUE
			if p1 <= 0 {
				t.Fatalf("%s: 1x1 parity DUE = %v, want > 0", name, p1)
			}
			if ratio := s2 / p1; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("%s: 2x1 SEC-DED (%v) should match 1x1 parity (%v), ratio %v",
					name, s2, p1, ratio)
			}
			s3 := l1avf(t, r, solve, SECDED, StyleWayPhysical, 1, 3).DUE
			p2 := l1avf(t, r, solve, Parity, StyleWayPhysical, 1, 2).DUE
			if s3 != 0 || p2 != 0 {
				t.Errorf("%s: undetected modes must have zero DUE: 3x1 SEC-DED = %v, 2x1 parity = %v",
					name, s3, p2)
			}
		}
	})
}

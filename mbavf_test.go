package mbavf

import (
	"bytes"
	"sync"
	"testing"
)

// minifeRun caches the instrumented minife run shared by the facade tests.
var (
	minifeOnce sync.Once
	minifeR    *Run
	minifeErr  error
)

func minife(t *testing.T) *Run {
	t.Helper()
	minifeOnce.Do(func() {
		minifeR, minifeErr = RunWorkload("minife")
	})
	if minifeErr != nil {
		t.Fatal(minifeErr)
	}
	return minifeR
}

func TestWorkloadsExposed(t *testing.T) {
	names := Workloads()
	if len(names) < 10 {
		t.Fatalf("only %d workloads", len(names))
	}
	found := false
	for _, n := range names {
		if n == "minife" {
			found = true
		}
	}
	if !found {
		t.Error("minife missing")
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	if _, err := RunWorkload("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestL1AVFBasics(t *testing.T) {
	r := minife(t)
	if r.Cycles() == 0 || r.Instructions() == 0 {
		t.Fatal("empty run")
	}
	avf, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avf.SBAVF <= 0 || avf.SBAVF > 1 {
		t.Errorf("SBAVF = %v", avf.SBAVF)
	}
	if avf.DUE <= 0 || avf.DUE > 1 {
		t.Errorf("DUE = %v", avf.DUE)
	}
	if avf.Groups == 0 || avf.Cycles != r.Cycles() {
		t.Errorf("metadata wrong: %+v", avf)
	}
	if avf.SBAVFLive > avf.SBAVF {
		t.Errorf("program-masked AVF %v exceeds raw AVF %v", avf.SBAVFLive, avf.SBAVF)
	}
}

// TestMBAVFWithinPaperBounds encodes Section IV-D: 2x1 MB-AVF lies in
// [1x, 2x] SB-AVF for parity (every region detected).
func TestMBAVFWithinPaperBounds(t *testing.T) {
	r := minife(t)
	for _, style := range []Style{StyleLogical, StyleWayPhysical, StyleIndexPhysical} {
		avf, err := r.AVF(L1, Parity, Interleaving{Style: style, Factor: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		ratio := avf.DUE / avf.SBAVF
		if ratio < 1.0-1e-9 || ratio > 2.0+1e-9 {
			t.Errorf("%s: MB/SB ratio %v outside [1,2]", style, ratio)
		}
	}
}

// TestLogicalInterleavingLowestMBAVF encodes the ACE-locality finding:
// logical interleaving has the lowest MB-AVF of the three styles.
func TestLogicalInterleavingLowestMBAVF(t *testing.T) {
	r := minife(t)
	get := func(style Style) float64 {
		avf, err := r.AVF(L1, Parity, Interleaving{Style: style, Factor: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return avf.DUE
	}
	logical := get(StyleLogical)
	way := get(StyleWayPhysical)
	idx := get(StyleIndexPhysical)
	if logical > way || logical > idx {
		t.Errorf("logical %v should not exceed way %v / index %v", logical, way, idx)
	}
}

// TestMBAVFGrowsWithModeSize encodes Section VI-C: larger fault modes
// have larger MB-AVFs.
func TestMBAVFGrowsWithModeSize(t *testing.T) {
	r := minife(t)
	prev := 0.0
	for m := 1; m <= 4; m++ {
		avf, err := r.AVF(L1, Parity, Interleaving{Style: StyleWayPhysical, Factor: 4}, m)
		if err != nil {
			t.Fatal(err)
		}
		if avf.DUE < prev-1e-12 {
			t.Errorf("%dx1 DUE %v below %v", m, avf.DUE, prev)
		}
		prev = avf.DUE
	}
}

// TestSECDEDCorrectsSingleBit: under SEC-DED a 1x1 fault is always
// corrected — zero DUE and SDC.
func TestSECDEDCorrectsSingleBit(t *testing.T) {
	r := minife(t)
	avf, err := r.AVF(L1, SECDED, Interleaving{Style: StyleWayPhysical, Factor: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if avf.DUE != 0 || avf.SDC != 0 {
		t.Errorf("SEC-DED 1x1 should be fully corrected: %+v", avf)
	}
}

// TestParityEvenFaultsSDC: a 2x1 fault entirely inside one parity domain
// (no interleaving) defeats parity: SDC > 0 and detected-DUE = 0.
func TestParityEvenFaultsUndetected(t *testing.T) {
	r := minife(t)
	avf, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avf.DUE != 0 {
		t.Errorf("un-interleaved parity cannot detect 2x1 faults, DUE = %v", avf.DUE)
	}
	if avf.SDC <= 0 {
		t.Errorf("un-interleaved parity 2x1 should produce SDC, got %v", avf.SDC)
	}
}

// TestFig9Shape: with SEC-DED and x2 interleaving, 5x1 faults keep a DUE
// component (one domain sees exactly 2 flips) while 6x1 faults are all-SDC.
func TestFig9Shape(t *testing.T) {
	r := minife(t)
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	five, err := r.AVF(L1, SECDED, il, 5)
	if err != nil {
		t.Fatal(err)
	}
	six, err := r.AVF(L1, SECDED, il, 6)
	if err != nil {
		t.Fatal(err)
	}
	if five.TrueDUE+five.FalseDUE <= 0 {
		t.Error("5x1 under SEC-DED x2 should retain a DUE component")
	}
	if six.TrueDUE+six.FalseDUE != 0 {
		t.Errorf("6x1 under SEC-DED x2 should have no DUE, got %v", six.TrueDUE+six.FalseDUE)
	}
	if six.SDC < five.SDC {
		t.Errorf("SDC should jump from 5x1 (%v) to 6x1 (%v)", five.SDC, six.SDC)
	}
}

func TestL2AVF(t *testing.T) {
	r := minife(t)
	avf, err := r.AVF(L2, Parity, Interleaving{Style: StyleIndexPhysical, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avf.SBAVF <= 0 {
		t.Error("L2 should have nonzero ACE time for minife")
	}
}

func TestVGPRAVFAndPreemption(t *testing.T) {
	r := minife(t)
	intra, err := r.AVF(VGPR, Parity, Interleaving{Style: StyleIntraThread, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := r.AVF(VGPR, Parity, Interleaving{Style: StyleInterThread, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if intra.SBAVF <= 0 {
		t.Error("VGPR should have ACE time")
	}
	// Both split the 2x1 fault across two domains (detected), so no SDC.
	if intra.SDC != 0 || inter.SDC != 0 {
		t.Errorf("x2-interleaved 2x1 should have zero SDC: %v %v", intra.SDC, inter.SDC)
	}
}

// TestCaseStudyShape encodes the Section VIII headline: parity with x4
// inter-thread interleaving yields lower SDC than SEC-DED with x2
// interleaving.
func TestCaseStudyShape(t *testing.T) {
	r := minife(t)
	parityTX4, err := r.SER(VGPR, Parity, Interleaving{Style: StyleInterThread, Factor: 4})
	if err != nil {
		t.Fatal(err)
	}
	eccRX2, err := r.SER(VGPR, SECDED, Interleaving{Style: StyleIntraThread, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	eccTX2, err := r.SER(VGPR, SECDED, Interleaving{Style: StyleInterThread, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if parityTX4.SDC > eccRX2.SDC {
		t.Errorf("parity tx4 SDC %v should be below SEC-DED rx2 SDC %v", parityTX4.SDC, eccRX2.SDC)
	}
	if parityTX4.SDC > eccTX2.SDC {
		t.Errorf("parity tx4 SDC %v should be below SEC-DED tx2 SDC %v", parityTX4.SDC, eccTX2.SDC)
	}
}

func TestSchemeOverheads(t *testing.T) {
	o, err := SECDED.CheckBitOverhead(32)
	if err != nil {
		t.Fatal(err)
	}
	if o < 0.218 || o > 0.220 {
		t.Errorf("SEC-DED 32-bit overhead = %v, want ~0.219", o)
	}
	if _, err := Scheme("bogus").CheckBitOverhead(32); err == nil {
		t.Error("bogus scheme should error")
	}
}

func TestInvalidConfigurations(t *testing.T) {
	r := minife(t)
	if _, err := r.AVF(L1, Parity, Interleaving{Style: StyleIntraThread, Factor: 2}, 2); err == nil {
		t.Error("thread interleaving on a cache should error")
	}
	if _, err := r.AVF(VGPR, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 2); err == nil {
		t.Error("logical style on VGPR should error")
	}
	if _, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 3}, 2); err == nil {
		t.Error("factor 3 over 512-bit lines should error")
	}
	if _, err := r.AVF(L1, "bogus", Interleaving{Style: StyleLogical, Factor: 2}, 2); err == nil {
		t.Error("bogus scheme should error")
	}
	if _, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 0); err == nil {
		t.Error("zero-bit mode should error")
	}
}

func TestInjectionCampaignFacade(t *testing.T) {
	c, err := NewInjectionCampaign("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := c.RunSingleBit(25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 || sum.Masked+sum.SDC+sum.DUE != 25 {
		t.Fatalf("results %d, summary %+v", len(results), sum)
	}
	if sum.SDC > 0 {
		rows, err := c.RunInterference(results, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Groups != sum.SDC {
			t.Errorf("interference groups %d != SDC count %d", rows[0].Groups, sum.SDC)
		}
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) != 19 {
		t.Errorf("experiments = %v", Experiments())
	}
	out, err := RunExperiment("table1", ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Error("empty experiment output")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestACELocalityOrdering: logical interleaving keeps adjacent bits in
// the same line, maximizing the locality coefficient.
func TestACELocalityOrdering(t *testing.T) {
	r := minife(t)
	get := func(style Style) float64 {
		loc, err := r.ACELocality(L1, Interleaving{Style: style, Factor: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Groups == 0 {
			t.Fatal("no groups")
		}
		return loc.Coefficient
	}
	logical := get(StyleLogical)
	way := get(StyleWayPhysical)
	idx := get(StyleIndexPhysical)
	if logical < way || logical < idx {
		t.Errorf("logical locality %v should be highest (way %v, idx %v)", logical, way, idx)
	}
	if logical <= 0 || logical > 1 {
		t.Errorf("locality coefficient %v outside (0,1]", logical)
	}
}

// TestVGPRACELocality: SIMD lanes execute in lock-step, so inter-thread
// locality is high.
func TestVGPRACELocality(t *testing.T) {
	r := minife(t)
	loc, err := r.ACELocality(VGPR, Interleaving{Style: StyleInterThread, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Coefficient <= 0.5 {
		t.Errorf("inter-thread VGPR locality %v suspiciously low for SIMD code", loc.Coefficient)
	}
}

func TestMTTFSweepFacade(t *testing.T) {
	pts, err := MTTFSweep([]float64{1e-4, 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.SpatialLow >= p.Temporal100yr {
			t.Errorf("spatial MTTF should sit below temporal at %g", p.RawFITPerBit)
		}
		if p.SpatialHigh >= p.SpatialLow {
			t.Error("5% fraction should lower MTTF vs 0.1%")
		}
	}
}

func TestAVFSeries(t *testing.T) {
	r := minife(t)
	series, err := r.AVFSeries(L1, Parity, Interleaving{Style: StyleIndexPhysical, Factor: 2}, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Windows) < 5 || len(series.Windows) > 6 {
		t.Fatalf("windows = %d", len(series.Windows))
	}
	// Weighted window DUE must reconstruct the total.
	var acc float64
	var cyc uint64
	for _, w := range series.Windows {
		acc += w.DUE * float64(w.Cycles)
		cyc += w.Cycles
	}
	if cyc != series.Total.Cycles {
		t.Errorf("window cycles %d != total %d", cyc, series.Total.Cycles)
	}
	total := series.Total.DUE * float64(series.Total.Cycles)
	if acc < total*0.999 || acc > total*1.001 {
		t.Errorf("windowed DUE mass %v != total %v", acc, total)
	}
	if _, err := r.AVFSeries(L1, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 2, 0); err == nil {
		t.Error("zero windows should error")
	}
	vs, err := r.AVFSeries(VGPR, Parity, Interleaving{Style: StyleInterThread, Factor: 2}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Windows) == 0 {
		t.Error("VGPR series empty")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := minife(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cycles() != r.Cycles() || loaded.Instructions() != r.Instructions() {
		t.Error("metadata mismatch after reload")
	}
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	want, err := r.AVF(L1, Parity, il, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.AVF(L1, Parity, il, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("reloaded analysis differs:\n want %+v\n got  %+v", want, got)
	}
	vwant, err := r.AVF(VGPR, SECDED, Interleaving{Style: StyleInterThread, Factor: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	vgot, err := loaded.AVF(VGPR, SECDED, Interleaving{Style: StyleInterThread, Factor: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if vwant != vgot {
		t.Errorf("reloaded VGPR analysis differs")
	}
}

func TestLoadRunRejectsGarbage(t *testing.T) {
	if _, err := LoadRun(bytes.NewBufferString("not a gob")); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestWorkloadDescription(t *testing.T) {
	d, err := WorkloadDescription("minife")
	if err != nil || d == "" {
		t.Errorf("description = %q, %v", d, err)
	}
	if _, err := WorkloadDescription("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

package mbavf

import (
	"context"
	"errors"
	"testing"
)

// TestUnifiedSEREquivalence bounds the SER roll-up: rates are finite,
// non-negative and within the total raw rate of Table III.
func TestUnifiedSEREquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	// Cache SER must at least be finite and bounded by the total raw rate.
	cs, err := r.SER(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cs.SDC < 0 || cs.DUE < 0 || cs.SDC+cs.DUE > 100 {
		t.Errorf("L1 SER out of range: %+v", cs)
	}
}

func TestParseStructure(t *testing.T) {
	for _, st := range Structures() {
		got, err := ParseStructure(string(st))
		if err != nil || got != st {
			t.Errorf("ParseStructure(%q) = %v, %v", st, got, err)
		}
	}
	if _, err := ParseStructure("tlb"); !errors.Is(err, ErrBadOption) {
		t.Errorf("ParseStructure(tlb) err = %v, want ErrBadOption", err)
	}
}

// TestBadOptionsNoRun pins the validation cases that need no simulated
// run, so they stay in the -race -short leg.
func TestBadOptionsNoRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"negative injections", ExperimentOptions{Injections: -1}.Validate()},
		{"negative workers", ExperimentOptions{Workers: -2}.Validate()},
	} {
		if !errors.Is(tc.err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, tc.err)
		}
	}
	if err := (ExperimentOptions{}).Validate(); err != nil {
		t.Errorf("zero options should validate: %v", err)
	}
}

// TestBadOptions pins the validation redesign: every malformed query is
// rejected with an error wrapping ErrBadOption instead of being silently
// coerced.
func TestBadOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"zero factor", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 0}, 2)
			return err
		}},
		{"zero mode bits", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1}, 0)
			return err
		}},
		{"unknown scheme", func() error {
			_, err := r.AVF(L1, Scheme("hamming"), Interleaving{Style: StyleLogical, Factor: 1}, 2)
			return err
		}},
		{"unknown structure", func() error {
			_, err := r.AVF(Structure("tlb"), Parity, Interleaving{Style: StyleLogical, Factor: 1}, 2)
			return err
		}},
		{"zero series windows", func() error {
			_, err := r.AVFSeries(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1}, 2, 0)
			return err
		}},
		{"factor not dividing the line", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 3}, 2)
			return err
		}},
		{"mode wider than a wordline", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 513)
			return err
		}},
		{"series mode wider than a wordline", func() error {
			_, err := r.AVFSeries(VGPR, Parity, Interleaving{Style: StyleInterThread, Factor: 2}, 65, 4)
			return err
		}},
		{"policy factor not dividing the ways", func() error {
			_, err := r.PolicyAVF(L2, "sec-ded", Interleaving{Style: StyleWayPhysical, Factor: 3}, 2, DefaultScrubInterval)
			return err
		}},
		{"locality zero mode bits", func() error {
			_, err := r.ACELocality(L1, Interleaving{Style: StyleLogical, Factor: 2}, 0)
			return err
		}},
		{"locality mode wider than a wordline", func() error {
			_, err := r.ACELocality(VGPR, Interleaving{Style: StyleIntraThread, Factor: 1}, 33)
			return err
		}},
		{"locality style not valid for the structure", func() error {
			_, err := r.ACELocality(L1, Interleaving{Style: StyleInterThread, Factor: 2}, 2)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
}

func TestRunWorkloadContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWorkloadContext(ctx, "minife"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run err = %v, want context.Canceled", err)
	}
}

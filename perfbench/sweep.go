package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"time"

	"mbavf/internal/experiments"
	"mbavf/internal/obs"
)

// sweepDigests holds the sha256 of each experiment's rendered tables over
// the sweep's program subset.
//
//go:embed golden/sweep.json
var sweepDigestsJSON []byte

// sweepPrograms and sweepExperiments are the repository's go-test
// benchmark subset and three figure experiments: fig6 (L1 DUE vs fault
// mode size), fig11 (the VGPR case study, which dominates) and the
// protection-policy sweep.
var (
	sweepPrograms    = []string{"minife", "matmul", "srad"}
	sweepExperiments = []string{"fig6", "fig11", "policies"}
)

// runSweep is the sweep workload: figure experiments over runs that are
// already resident, so the measured time is analysis alone — timeline
// pack, row sweep and classification, the policy pass — with no
// simulation, store or HTTP work.
func runSweep(ctx context.Context, b *bench) error {
	want, err := loadDigests(sweepDigestsJSON)
	if err != nil {
		return err
	}
	var storeDir string
	// Set-up: record the programs into a fresh store, which the warm-up
	// then loads.
	if err := b.setupRepeated(ctx, func(ctx context.Context, rep int) error {
		name := fmt.Sprintf("setup-%d", rep)
		rs, err := b.openStore(name)
		if err != nil {
			return err
		}
		storeDir = rs.Dir()
		_, err = b.recordPrograms(ctx, rs, sweepPrograms, name)
		return err
	}); err != nil {
		return err
	}
	experiments.ResetCache()
	opts := experiments.Options{
		Workloads: sweepPrograms, Injections: 10, Seed: 42, Windows: 8, StoreDir: storeDir,
	}
	// One untimed fig6 run loads the three runs from the store and keeps
	// them resident for the timed passes (a run holds every structure, so
	// any experiment over the programs would do; fig6 is the cheapest of
	// the three).
	if err := b.tr.do(ctx, "sweep.warmup", "", func(ctx context.Context) error {
		b.experiment(ctx, "fig6", opts, want, -1)
		return nil
	}); err != nil {
		return err
	}
	return b.passes(ctx, 2, func(ctx context.Context, i int) error {
		var c0, c1 map[string]uint64
		if b.tr.on {
			c0 = obs.Counters()
		}
		var passMS float64
		if err := b.measure(ctx, func(ctx context.Context) (int, error) {
			passMS = b.sweepPass(ctx, opts, want, i)
			return 1, nil
		}); err != nil {
			return err
		}
		b.timedOps([]float64{passMS})
		if b.tr.on {
			c1 = obs.Counters()
			b.sampleCounters(c0, c1, analysisCounters)
		}
		return nil
	})
}

// sweepPass runs the three experiments once and returns its wall time in
// milliseconds.
func (b *bench) sweepPass(ctx context.Context, opts experiments.Options, want map[string]string, pass int) float64 {
	start := time.Now()
	for _, name := range sweepExperiments {
		b.experiment(ctx, name, opts, want, pass)
	}
	return ms(time.Since(start))
}

// experiment runs one experiment and checks its rendered tables against
// the golden digest. Pass -1 is the warm-up, which is not measured.
func (b *bench) experiment(ctx context.Context, name string, opts experiments.Options, want map[string]string, pass int) {
	b.attempted++
	e, err := experiments.ByName(name)
	if err != nil {
		b.fail(1, "%s: %v", name, err)
		return
	}
	began := time.Now()
	var text string
	err = b.tr.do(ctx, "experiments."+name, fmt.Sprintf("pass%d/%s", pass, name), func(ctx context.Context) error {
		tables, err := e.Run(opts)
		text = experiments.RenderAll(tables, false)
		return err
	})
	if pass >= 0 {
		b.sample("experiments."+name+"_s", time.Since(began).Seconds())
	}
	if err != nil {
		b.fail(1, "%s pass %d: %v", name, pass, err)
		return
	}
	sum := sha256.Sum256([]byte(text))
	got := hex.EncodeToString(sum[:])
	if got != want[name] {
		b.fail(1, "%s pass %d: rendered tables digest %s differs from golden/sweep.json", name, pass, got)
	}
	if pass == 0 {
		status := "ok"
		if got != want[name] {
			status = "MISMATCH"
		}
		b.notef("digest %-18s %s %s", name, got, status)
	}
}

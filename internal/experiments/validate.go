package experiments

import (
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/inject"
	"mbavf/internal/report"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// validate cross-checks the ACE-analysis SDC AVF of the vector register
// file against a statistical fault-injection estimate of the same
// quantity — the Wang-vs-Biswas methodological debate the paper cites.
//
// The analysis side is the unprotected single-bit SDC AVF (program-live
// bit fraction). The injection side is the fraction of uniform random
// single-bit flips that corrupt program output; flips that trap (corrupted
// addresses) are reported separately, since ACE analysis conservatively
// counts address bits as ACE. ACE analysis is an upper bound, so
// analysis >= injection SDC must hold, and the gap measures the
// conservatism of the ACE assumptions.
func validate(o Options) ([]*report.Table, error) {
	t := report.NewTable("Validation: VGPR SDC AVF, ACE analysis vs statistical fault injection",
		"workload", "analysis SDC AVF", "inject SDC frac", "inject DUE frac", "inject SDC+DUE", "conservatism")
	t.Caption = fmt.Sprintf("Injection: %d uniform single-bit flips per workload. ACE analysis upper-bounds the injected SDC+DUE rate; the ratio is its conservatism.", o.Injections)
	names := o.Workloads
	if len(names) == 0 {
		names = table2Workloads()
	}
	for _, name := range names {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		an, err := analyzer(s, core.VGPR, core.IntraThread, 1)
		if err != nil {
			return nil, err
		}
		res, err := an.Analyze(ecc.None{}, bitgeom.Mx1(1))
		if err != nil {
			return nil, err
		}
		analysis := res.SDCMBAVF()

		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := inject.NewCampaignContext(o.ctx(), w, sim.InjectionConfig())
		if err != nil {
			return nil, err
		}
		rep, err := runInjection(o.ctx(), o, c, inject.RunConfig{N: o.Injections, Seed: o.Seed, Workers: o.Workers})
		if err != nil {
			return nil, err
		}
		results := rep.Results()
		counts := inject.Count(results)
		n := float64(len(results))
		sdcFrac := float64(counts.SDC) / n
		dueFrac := float64(counts.DUE) / n
		conserv := 0.0
		if sdcFrac+dueFrac > 0 {
			conserv = analysis / (sdcFrac + dueFrac)
		}
		t.AddRowf(name, analysis, sdcFrac, dueFrac, sdcFrac+dueFrac, conserv)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("validate", "ACE analysis vs fault injection (validation)", validate)
}

package experiments

import (
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/report"
	"mbavf/internal/sim"
	"mbavf/internal/stats"
	"mbavf/internal/workloads"
)

// cachesize sweeps the L1 capacity and reports how SB-AVF and the 2x1
// MB/SB ratio respond — the capacity-vs-vulnerability tradeoff an
// architect weighs alongside protection choices. Larger caches hold data
// longer (more ACE residency per byte) but spread the working set over
// more bits (lower occupancy), so AVF can move either way.
func cachesize(o Options) ([]*report.Table, error) {
	sizes := []int{8 << 10, 16 << 10, 32 << 10}
	header := []string{"workload"}
	for _, sz := range sizes {
		header = append(header, fmt.Sprintf("%dKB SB-AVF", sz/1024), fmt.Sprintf("%dKB MB/SB", sz/1024))
	}
	t := report.NewTable("Ablation: L1 capacity sweep, 2x1 parity x2 way-physical", header...)
	t.Caption = "Fresh simulation per size (the memoized run cache holds only the default 16KB configuration)."
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"minife", "matmul", "srad"}
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, sz := range sizes {
			cfg := sim.DefaultConfig()
			cfg.Caches.L1.SizeBytes = sz
			cfg.TrackL2 = false
			cfg.TrackVGPR = false
			sess, err := sim.Execute(w, cfg)
			if err != nil {
				return nil, err
			}
			s := sess.Measurements()
			an, err := analyzer(s, core.L1, core.WayPhysical, 2)
			if err != nil {
				return nil, err
			}
			r, err := an.Analyze(ecc.Parity{}, bitgeom.Mx1(2))
			if err != nil {
				return nil, err
			}
			row = append(row, r.BitAVF(), stats.Ratio(r.DUEMBAVF(), r.BitAVF()))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("cachesize", "L1 capacity sensitivity (ablation)", cachesize)
}

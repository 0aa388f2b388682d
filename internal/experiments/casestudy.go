package experiments

import (
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/faultrate"
	"mbavf/internal/report"
	"mbavf/internal/stats"
)

// vgprConfig is one design point of the Section VIII case study.
type vgprConfig struct {
	label  string
	scheme ecc.Scheme
	style  core.Style
	factor int
}

func caseStudyConfigs() []vgprConfig {
	return []vgprConfig{
		{"parity rx2", ecc.Parity{}, core.IntraThread, 2},
		{"parity rx4", ecc.Parity{}, core.IntraThread, 4},
		{"parity tx2", ecc.Parity{}, core.InterThread, 2},
		{"parity tx4", ecc.Parity{}, core.InterThread, 4},
		{"sec-ded rx2", ecc.SECDED{}, core.IntraThread, 2},
		{"sec-ded rx4", ecc.SECDED{}, core.IntraThread, 4},
		{"sec-ded tx2", ecc.SECDED{}, core.InterThread, 2},
		{"sec-ded tx4", ecc.SECDED{}, core.InterThread, 4},
	}
}

// approxSDCAVF is the baseline designers use without MB-AVF analysis:
// approximate every fault mode's AVF with the single-bit AVF and
// conservatively assume any fault the protection cannot detect causes
// SDC. A contiguous Mx1 fault over factor-I interleaving concentrates
// ceil(M/I) flips in the worst-hit domain.
func approxSDCAVF(scheme ecc.Scheme, factor, modeSize int, sbLive float64) float64 {
	worst := (modeSize + factor - 1) / factor
	if scheme.React(worst) == ecc.ReactUndetected {
		return sbLive
	}
	return 0
}

// fig11 reproduces the VGPR protection case study: SDC rates (AVF-weighted
// FIT summed over all fault modes, averaged across workloads) for parity
// and SEC-DED under intra-thread (rx) and inter-thread (tx) x2/x4
// interleaving, from full MB-AVF analysis and from the SB-AVF
// approximation (paper Figure 11).
func fig11(o Options) ([]*report.Table, error) {
	rates := faultrate.TableIII()
	configs := caseStudyConfigs()
	t := report.NewTable("Figure 11: GPU VGPR SDC rate by protection scheme (FIT-weighted, mean across workloads)",
		"config", "SDC (MB-AVF analysis)", "SDC (SB-AVF approximation)", "DUE (MB-AVF)", "check-bit overhead")
	t.Caption = "MB-AVF analysis lowers SDC estimates versus the SB-AVF approximation, and parity with x4 inter-thread interleaving beats SEC-DED with x2 interleaving on SDC."

	names := o.workloadNames()
	for _, cfg := range configs {
		var sdcMB, sdcApprox, dueMB []float64
		for _, name := range names {
			s, err := run(o, name)
			if err != nil {
				return nil, err
			}
			an, err := analyzer(s, core.VGPR, cfg.style, cfg.factor)
			if err != nil {
				return nil, err
			}
			var serSDC, serApprox, serDUE float64
			var sbLive float64
			for _, mr := range rates {
				r, err := an.Analyze(cfg.scheme, bitgeom.Mx1(mr.Width))
				if err != nil {
					return nil, err
				}
				sbLive = r.BitAVFLive()
				serSDC += faultrate.SER(mr.FIT, r.SDCMBAVF())
				serDUE += faultrate.SER(mr.FIT, r.TrueDUEMBAVF()+r.FalseDUEMBAVF())
				serApprox += faultrate.SER(mr.FIT, approxSDCAVF(cfg.scheme, cfg.factor, mr.Width, sbLive))
			}
			sdcMB = append(sdcMB, serSDC)
			sdcApprox = append(sdcApprox, serApprox)
			dueMB = append(dueMB, serDUE)
		}
		overhead := ecc.Overhead(cfg.scheme, 32)
		t.AddRowf(cfg.label, stats.Mean(sdcMB), stats.Mean(sdcApprox), stats.Mean(dueMB),
			fmt.Sprintf("%.1f%%", 100*overhead))
	}
	return []*report.Table{t}, nil
}

// CaseStudySDC returns the mean MB-AVF SDC rate for one named config,
// used by tests and EXPERIMENTS.md shape checks.
func CaseStudySDC(o Options, label string) (float64, error) {
	tables, err := fig11(o)
	if err != nil {
		return 0, err
	}
	for _, row := range tables[0].Rows {
		if row[0] == label {
			var v float64
			if _, err := fmt.Sscanf(row[1], "%g", &v); err != nil {
				return 0, err
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("experiments: config %q not in Figure 11", label)
}

func init() {
	registerExp("fig11", "VGPR protection case study", fig11)
}

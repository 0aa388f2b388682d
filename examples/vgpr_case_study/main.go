// VGPR case study: choose a protection scheme for the GPU vector
// register file to minimize silent data corruption per unit of area —
// the paper's Section VIII design exercise (Figure 11).
//
// Each candidate couples a code (parity or SEC-DED ECC) with a register
// interleaving style: rx interleaves different registers of the same
// thread; tx interleaves the same register across the 16 threads of a
// wavefront. Because a wavefront reads the same register of all its
// threads in lock-step, a detectable error in one thread's slice of an
// inter-thread-interleaved fault is caught before an adjacent thread's
// silent corruption can propagate — the detection-preempts-SDC effect
// that makes cheap parity with tx interleaving beat expensive ECC.
package main

import (
	"fmt"
	"log"

	"mbavf"
)

func main() {
	workloadSet := []string{"minife", "matmul", "srad", "prefixsum"}

	type config struct {
		label  string
		scheme mbavf.Scheme
		style  mbavf.Style
		factor int
	}
	configs := []config{
		{"parity rx2", mbavf.Parity, mbavf.StyleIntraThread, 2},
		{"parity rx4", mbavf.Parity, mbavf.StyleIntraThread, 4},
		{"parity tx2", mbavf.Parity, mbavf.StyleInterThread, 2},
		{"parity tx4", mbavf.Parity, mbavf.StyleInterThread, 4},
		{"sec-ded rx2", mbavf.SECDED, mbavf.StyleIntraThread, 2},
		{"sec-ded tx2", mbavf.SECDED, mbavf.StyleInterThread, 2},
	}

	runs := make(map[string]*mbavf.Run)
	for _, name := range workloadSet {
		r, err := mbavf.RunWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		runs[name] = r
	}

	fmt.Println("VGPR soft error rates (FIT-weighted over 1x1..8x1 fault modes, mean across workloads)")
	fmt.Printf("%-12s %12s %12s %10s\n", "config", "SDC", "DUE", "area")
	type scored struct {
		label string
		sdc   float64
	}
	var results []scored
	for _, cfg := range configs {
		var sdc, due float64
		for _, name := range workloadSet {
			ser, err := runs[name].SER(mbavf.VGPR, cfg.scheme, mbavf.Interleaving{Style: cfg.style, Factor: cfg.factor})
			if err != nil {
				log.Fatal(err)
			}
			sdc += ser.SDC
			due += ser.DUE
		}
		sdc /= float64(len(workloadSet))
		due /= float64(len(workloadSet))
		overhead, err := cfg.scheme.CheckBitOverhead(32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %12.4f %12.4f %9.1f%%\n", cfg.label, sdc, due, 100*overhead)
		results = append(results, scored{cfg.label, sdc})
	}

	best := results[0]
	for _, r := range results[1:] {
		if r.sdc < best.sdc {
			best = r
		}
	}
	fmt.Printf("\nlowest SDC: %s", best.label)
	for _, r := range results {
		if r.label == "sec-ded rx2" && best.sdc < r.sdc {
			fmt.Printf(" — %.0f%% below sec-ded rx2 at a fraction of the area",
				100*(1-best.sdc/r.sdc))
		}
	}
	fmt.Println()
}

// Quickstart: run one workload on the simulated APU and measure the
// multi-bit AVF of its L1 cache under parity with x2 logical
// interleaving.
package main

import (
	"fmt"
	"log"

	"mbavf"
)

func main() {
	// Execute the bundled vecadd workload: the simulator runs it to
	// completion, recording per-bit lifetime events in the L1/L2 caches
	// and the vector register file, plus a dynamic dataflow graph for
	// program-level masking analysis.
	run, err := mbavf.RunWorkload("matmul")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d cycles, %d wavefront instructions\n",
		run.Cycles(), run.Instructions())

	// Measure the vulnerability of the L1 data array to 2x1 spatial
	// multi-bit faults (two adjacent bits flipped by one particle strike)
	// when each cache line is protected by parity and physically adjacent
	// bits belong to two different check words (x2 logical interleaving).
	il := mbavf.Interleaving{Style: mbavf.StyleLogical, Factor: 2}
	avf, err := run.AVF(mbavf.L1, mbavf.Parity, il, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("single-bit AVF:        %6.2f%%\n", 100*avf.SBAVF)
	fmt.Printf("2x1 DUE MB-AVF:        %6.2f%%  (%.2fx single-bit)\n",
		100*avf.DUE, avf.DUE/avf.SBAVF)
	fmt.Printf("2x1 SDC MB-AVF:        %6.2f%%\n", 100*avf.SDC)
	fmt.Printf("fault groups analyzed: %d over %d cycles\n", avf.Groups, avf.Cycles)

	// The same fault mode without interleaving defeats parity entirely
	// (two flips in one check word are undetectable), converting the DUE
	// vulnerability into silent data corruption.
	flat, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: mbavf.StyleLogical, Factor: 1}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout interleaving:  DUE %.2f%%, SDC %.2f%% — interleaving converts SDC into detectable errors\n",
		100*flat.DUE, 100*flat.SDC)
}

// Sweep: run a declarative scenario matrix in parallel across CPU cores —
// the harness for producing statistically robust versions of the paper's
// figures. Here: both policies at three offered loads, 10 derived seeds
// per cell, reporting per-cell mean ±95% CI and the headline cost saving.
//
// The same sweep is available from the CLI:
//
//	meryn-sim -sweep "policy=meryn,static load=35,50,65 reps=10"
package main

import (
	"fmt"
	"log"

	"meryn/internal/exp"
)

func main() {
	g := exp.SweepGrid()
	g.Name = "example"
	g.Reps = 10
	res, err := g.Run(exp.Options{}) // one worker per core
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())

	// Headline: Meryn's cost saving at the paper's load (50 VC1 apps).
	cost := map[any]exp.Metric{}
	for _, c := range res.Cells {
		if c.Value("load") == 50 {
			cost[c.Value("policy")] = c.Metric("cost_units")
		}
	}
	meryn, static := cost["meryn"], cost["static"]
	fmt.Printf("\ncost saving at load 50: %.2f%% (paper: 14.07%%)\n",
		(static.Mean-meryn.Mean)/static.Mean*100)
}

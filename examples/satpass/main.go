// Satellite pass: the paper's §5.2 "not all downtime is the same"
// argument, live. A front-end failure strikes two minutes into a satellite
// pass. Under the original tree I the whole-system recovery (~25 s)
// exceeds what the link tolerates and the session is lost; under tree IV
// the partial restart (~6 s) rides it out and nearly all science data
// survives.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/recursive-restart/mercury/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Downtime during a satellite pass (paper §5.2) ===")
	fmt.Printf("downlink %.1f kbps; link tolerates %v of outage mid-pass\n\n",
		experiment.DataRateKbps, experiment.LinkBreakThreshold)

	outcomes, err := experiment.SatPass(context.Background(), []string{"I", "IV"}, 42, 0)
	if err != nil {
		return err
	}
	for _, o := range outcomes {
		fmt.Println(experiment.RenderPassOutcome(o))
	}

	fmt.Println("A large MTTF cannot guarantee a failure-free pass, but a short MTTR")
	fmt.Println("provides high assurance that a failure will not cost the whole pass.")
	return nil
}

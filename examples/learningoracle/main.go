// Learning oracle: the paper's §7 future work, implemented. The oracle
// starts with no knowledge of Mercury's failure structure and repeatedly
// faces pbcom failures that only a joint [fedr pbcom] restart cures. Each
// episode it updates its f estimates from the restart outcome; after a few
// rounds it recommends the joint restart immediately and recovery time
// halves.
package main

import (
	"fmt"
	"log"
	"time"

	mercury "github.com/recursive-restart/mercury"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := mercury.NewSystem(mercury.Config{
		Seed:     7,
		TreeName: "IV",
		Policy:   mercury.PolicyLearning,
	})
	if err != nil {
		return err
	}
	if err := sys.Boot(); err != nil {
		return err
	}
	fmt.Println("=== Oracle that learns f estimates from its mistakes (paper §7) ===")
	fmt.Println(sys.Tree.Render())

	joint := mercury.Fault{Component: "pbcom", Cure: []string{"fedr", "pbcom"}}
	for round := 1; round <= 6; round++ {
		d, err := sys.MeasureRecovery(joint, 5*time.Minute)
		if err != nil {
			return err
		}
		fmt.Printf("round %d: pbcom joint failure recovered in %6.2f s\n", round, d.Seconds())
		// Let the persistence window close so the outcome is observed.
		if err := sys.RunFor(30 * time.Second); err != nil {
			return err
		}
	}

	fmt.Println("\nlearned estimates (cure probability and duration per site and action):")
	fmt.Print(sys.Oracle.Estimator().Render())
	fmt.Println("\nthe oracle converged on the joint [fedr pbcom] restart: no more")
	fmt.Println("wasted pbcom-only restarts, matching the minimal restart policy.")
	fmt.Println("(an occasional slow round is the oracle's 5% deliberate exploration,")
	fmt.Println("which keeps the estimates honest if the system's behaviour changes)")
	return nil
}

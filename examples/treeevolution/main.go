// Tree evolution: walk the paper's §4 narrative live. Starting from the
// trivial restart tree (any failure → whole-system reboot), apply depth
// augmentation, the fedrcom split, group consolidation and node promotion,
// measuring the recovery times that motivate each transformation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// measure runs a few trials of one cell and returns the mean in seconds.
func measure(tree string, policy mercury.Policy, p float64, comp string, cure []string, seed int64) (float64, error) {
	s, err := experiment.RunCell(context.Background(), experiment.Cell{
		Tree: tree, Policy: policy, FaultyP: p, Component: comp, Cure: cure,
	}, experiment.RunConfig{Trials: 5, BaseSeed: seed})
	if err != nil {
		return 0, err
	}
	return s.MeanSeconds(), nil
}

func run() error {
	fmt.Println("=== Evolving Mercury's restart tree (paper §4) ===")
	start := time.Now()

	sysI, err := mercury.NewSystem(mercury.Config{Seed: 1, TreeName: "I"})
	if err != nil {
		return err
	}
	fmt.Println(sysI.Trees["I"].Render())
	fmt.Println("Tree I: the only policy is a total reboot. Failing the cheap rtu")
	fmt.Println("still costs a full fedrcom restart:")
	rtuI, err := measure("I", mercury.PolicyPerfect, 0, "rtu", nil, 100)
	if err != nil {
		return err
	}
	fmt.Printf("  rtu failure → %.2f s (paper: 24.75 s)\n\n", rtuI)

	fmt.Println(sysI.Trees["II"].Render())
	fmt.Println("Tree II (simple depth augmentation): each component gets its own cell.")
	rtuII, err := measure("II", mercury.PolicyPerfect, 0, "rtu", nil, 200)
	if err != nil {
		return err
	}
	fedrcomII, err := measure("II", mercury.PolicyPerfect, 0, "fedrcom", nil, 300)
	if err != nil {
		return err
	}
	fmt.Printf("  rtu     → %.2f s (paper 5.59); fedrcom → %.2f s (paper 20.93)\n", rtuII, fedrcomII)
	fmt.Printf("  %.1f× faster for rtu — but fedrcom is still slow AND fails often.\n\n", rtuI/rtuII)

	fmt.Println(sysI.Trees["III"].Render())
	fmt.Println("Tree III (subtree depth augmentation): fedrcom splits into fedr (buggy,")
	fmt.Println("fast restart) + pbcom (stable, slow serial negotiation).")
	fedrIII, err := measure("III", mercury.PolicyPerfect, 0, "fedr", nil, 400)
	if err != nil {
		return err
	}
	sesIII, err := measure("III", mercury.PolicyPerfect, 0, "ses", nil, 500)
	if err != nil {
		return err
	}
	fmt.Printf("  fedr → %.2f s (paper 5.76): the frequent failures became cheap.\n", fedrIII)
	fmt.Printf("  ses  → %.2f s (paper 9.50): still slow — restarting ses crashes str.\n\n", sesIII)

	fmt.Println(sysI.Trees["IV"].Render())
	fmt.Println("Tree IV (group consolidation): ses and str share a cell, so correlated")
	fmt.Println("failures cost max(MTTR_ses, MTTR_str) instead of the sum.")
	sesIV, err := measure("IV", mercury.PolicyPerfect, 0, "ses", nil, 600)
	if err != nil {
		return err
	}
	fmt.Printf("  ses → %.2f s (paper 6.25)\n\n", sesIV)

	cure := []string{"fedr", "pbcom"}
	pbIV, err := measure("IV", mercury.PolicyFaulty, experiment.FaultyP, "pbcom", cure, 700)
	if err != nil {
		return err
	}
	fmt.Println(sysI.Trees["V"].Render())
	fmt.Println("Tree V (node promotion): with a 30%-wrong oracle, tree IV pays for")
	fmt.Println("guess-too-low mistakes on pbcom; tree V makes them impossible.")
	pbV, err := measure("V", mercury.PolicyFaulty, experiment.FaultyP, "pbcom", cure, 800)
	if err != nil {
		return err
	}
	fmt.Printf("  pbcom joint failure, faulty oracle: IV → %.2f s (paper 29.19),"+
		" V → %.2f s (paper 21.63)\n\n", pbIV, pbV)

	fmt.Printf("done in %v of wall time (all measurements in simulated time)\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}

package experiment

import (
	"fmt"
	"strings"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/station"
)

// Figure1 renders the Mercury software architecture (the paper's
// figure 1): the components, the bus, and the FD/REC sidecar with its
// dedicated link.
func Figure1() string {
	return strings.Join([]string{
		"Figure 1 — Mercury software architecture",
		"",
		"  ses ──┐   str ──┐   rtu ──┐   fedr(com) ──┐",
		"        │         │         │               │",
		"        └────┬────┴────┬────┴───────┬───────┘",
		"             │       mbus (XML message bus over TCP)",
		"             │         │",
		"            FD ────────┘   (liveness pings, 1 s period)",
		"             │",
		"   dedicated TCP link",
		"             │",
		"            REC  (restart tree + oracle; pushes restart buttons)",
		"",
		"  fedrcom: XML ↔ radio-command proxy (later split: fedr + pbcom)",
		"  ses:     satellite estimator (position, frequencies, angles)",
		"  str:     satellite tracker (antenna pointing)",
		"  rtu:     radio tuner",
		"  mbus:    message bus; monitored like any other component",
	}, "\n") + "\n"
}

// Figures renders the restart trees of figures 2–6.
func Figures() (string, error) {
	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2 — an example restart tree (cells R_A, R_B, R_C, R_BC, R_ABC)\n")
	example, err := core.NewTree("example", &core.Node{
		Children: []*core.Node{
			{Components: []string{"A"}},
			{Children: []*core.Node{
				{Components: []string{"B"}},
				{Components: []string{"C"}},
			}},
		},
	})
	if err != nil {
		return "", err
	}
	sb.WriteString(example.Render())
	sb.WriteString("\n")
	for _, f := range []struct {
		fig  string
		name string
		note string
	}{
		{"Figure 3 (left)", "I", "original: any failure restarts everything"},
		{"Figure 3 (right)", "II", "simple depth augmentation"},
		{"Figure 4 (middle)", "IIp", "fedrcom split flat (tree II')"},
		{"Figure 4 (right)", "III", "subtree depth augmentation"},
		{"Figure 5", "IV", "group consolidation of ses+str"},
		{"Figure 6", "V", "node promotion of pbcom"},
	} {
		fmt.Fprintf(&sb, "%s — %s\n", f.fig, f.note)
		sb.WriteString(trees[f.name].Render())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// Table3 renders the transformation summary (the paper's Table 3).
func Table3() string {
	rows := []struct {
		tree, transform, benefit, assumptions, useful string
	}{
		{"I", "original tree", "any component failure triggers a whole-system restart",
			"A_cure, A_entire", "only if all component MTTRs are roughly equal"},
		{"II", "simple depth augmentation", "components independently restartable",
			"A_independent, A_oracle, A_cure, A_entire", "f_{A,B} > 0 or f_A + f_B > 0"},
		{"III", "subtree depth augmentation", "saves restarting pbcom whenever fedr fails (fedr fails often)",
			"A_independent, A_oracle, A_cure, A_entire", "f_{A,B} > 0 or f_A + f_B > 0"},
		{"IV", "group consolidation", "cuts the delay restarting correlated pairs (ses and str)",
			"A_oracle, A_cure, A_entire", "f_A + f_B << f_{A,B}"},
		{"V", "node promotion", "prevents the oracle's guess-too-low mistakes on pbcom",
			"A_cure, A_entire", "oracle is faulty (it can guess wrong)"},
	}
	var sb strings.Builder
	sb.WriteString("Table 3 — summary of restart tree transformations\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "tree %-4s %-28s\n", r.tree, r.transform)
		fmt.Fprintf(&sb, "          benefit:     %s\n", r.benefit)
		fmt.Fprintf(&sb, "          embodies:    %s\n", r.assumptions)
		fmt.Fprintf(&sb, "          useful when: %s\n", r.useful)
	}
	return sb.String()
}

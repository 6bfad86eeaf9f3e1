package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// The paper's own evaluation: Tables 1-4, figures 1-6, the §8 headline and
// the studies the paper argues in prose. Each section is a table entry
// switched on by its own flag or by -all; they run in table order, which is
// the order `rrbench -all` has always printed them in.

// paperRun is what the sections of one invocation share: the driver's
// flags, the -all switch, and the Table 4 grid, which is measured once
// however many sections read it.
type paperRun struct {
	sh   *shared
	all  bool
	rows []experiment.Row
}

const soakHorizon = 12 * time.Hour

func paperSections() []campaign {
	p := &paperRun{}
	return []campaign{
		{name: "-all", bind: func(fs *flag.FlagSet, sh *shared) runFunc {
			fs.BoolVar(&p.all, "all", false, "regenerate everything")
			return nil // a switch the other sections read
		}},
		p.section("manual", "pre-RR manual-operator baseline vs automated recovery", p.manual),
		p.section("sweep", "oracle-quality sweep: tree IV vs V across error rates", p.sweep),
		p.section("soak", "organic-failure availability soak (trees I vs IV)", p.soak),
		p.section("rejuv", "§4.4 free-restart rejuvenation MTTF comparison", p.rejuv),
		p.numbered("fig", 6, "render figure N (1: architecture, 2-6: the restart trees)", p.fig),
		p.numbered("table", 4, "regenerate table N (1-4)", p.table),
		p.section("headline", "compute the §8 improvement factor", p.headline),
	}
}

// section is a paper section switched on by the boolean flag -name.
func (p *paperRun) section(name, help string, run runFunc) campaign {
	return campaign{name: "-" + name, bind: func(fs *flag.FlagSet, sh *shared) runFunc {
		p.sh = sh
		on := fs.Bool(name, false, help)
		return func(ctx context.Context) (any, string, error) {
			if !*on && !p.all {
				return nil, "", nil
			}
			return run(ctx)
		}
	}}
}

// numbered is a paper section selected by -name N, 1 <= N <= last. Its run
// is handed a predicate: under -all every number is wanted.
func (p *paperRun) numbered(name string, last int, help string, run func(ctx context.Context, want func(int) bool) (any, string, error)) campaign {
	return campaign{name: "-" + name, arg: "N", bind: func(fs *flag.FlagSet, sh *shared) runFunc {
		p.sh = sh
		n := fs.Int(name, 0, help)
		return func(ctx context.Context) (any, string, error) {
			switch {
			case p.all:
			case *n == 0:
				return nil, "", nil
			case *n < 1 || *n > last:
				return nil, "", usagef("-%s %d: N is 1-%d", name, *n, last)
			}
			return run(ctx, func(k int) bool { return p.all || *n == k })
		}
	}}
}

// sectionsOf composes the table's paper sections into the one campaign a
// flag-first command line runs: every section binds its flag on the shared
// flag set, the selected ones run in table order, their text is
// concatenated and their documents merged under the trial header.
func sectionsOf(table []campaign) campaign {
	return campaign{bind: func(fs *flag.FlagSet, sh *shared) runFunc {
		sh.trialFlags(fs, experiment.DefaultTrials)
		var runs []runFunc
		var names []string
		for _, c := range table {
			if strings.HasPrefix(c.name, "-") {
				names = append(names, c.name)
				if run := c.bind(fs, sh); run != nil {
					runs = append(runs, run)
				}
			}
		}
		return func(ctx context.Context) (any, string, error) {
			rep := map[string]any{}
			var text strings.Builder
			for _, run := range runs {
				doc, t, err := run(ctx)
				text.WriteString(t)
				if err != nil {
					return nil, text.String(), err
				}
				section, _ := doc.(map[string]any) // nil when not selected or text only
				for k, v := range section {
					rep[k] = v
				}
			}
			if len(rep) == 0 {
				if text.Len() == 0 {
					return nil, "", usagef("nothing to do: pass one of %s", strings.Join(names, ", "))
				}
				return nil, text.String(), nil
			}
			rep["trials"], rep["seed"], rep["parallel"] = sh.trials, sh.seed, sh.parallel
			return rep, text.String(), nil
		}
	}}
}

func (p *paperRun) manual(ctx context.Context) (any, string, error) {
	rc := p.sh.runConfig()
	if rc.Trials > 20 {
		rc.Trials = 20
	}
	r, err := experiment.ManualVsAutoCfg(ctx, rc)
	if err != nil {
		return nil, "", err
	}
	return map[string]any{"manual": r}, experiment.RenderManual(r) + "\n", nil
}

func (p *paperRun) sweep(ctx context.Context) (any, string, error) {
	rc := p.sh.runConfig()
	if rc.Trials > 25 {
		rc.Trials = 25 // the sweep has 12 cells; keep it snappy
	}
	points, err := experiment.OracleQualitySweep(ctx, rc)
	if err != nil {
		return nil, "", err
	}
	return map[string]any{"sweep": points}, experiment.RenderSweep(points) + "\n", nil
}

func (p *paperRun) soak(ctx context.Context) (any, string, error) {
	results, err := experiment.Soak(ctx, []string{"I", "IV"}, soakHorizon, p.sh.seed, p.sh.parallel)
	if err != nil {
		return nil, "", err
	}
	var text strings.Builder
	text.WriteString("organic-failure soak (Table 1 rates, escalating oracle, 12 simulated hours)\n")
	for _, r := range results {
		text.WriteString(experiment.RenderSoak(r))
	}
	text.WriteString("\n")
	return map[string]any{"soak": results}, text.String(), nil
}

func (p *paperRun) rejuv(context.Context) (any, string, error) {
	r, err := experiment.FreeRestartMTTF(soakHorizon, p.sh.seed)
	if err != nil {
		return nil, "", err
	}
	return map[string]any{"rejuv": r}, experiment.RenderFreeRestart(r) + "\n", nil
}

// fig renders the ASCII figures. They have no document: -all -json leaves
// them out, -fig N -json is refused by the driver.
func (p *paperRun) fig(_ context.Context, want func(int) bool) (any, string, error) {
	var text strings.Builder
	if want(1) {
		text.WriteString(experiment.Figure1() + "\n")
	}
	if p.all || !want(1) { // figures 2-6 are one render of the five trees
		figs, err := experiment.Figures()
		if err != nil {
			return nil, "", err
		}
		text.WriteString(figs + "\n")
	}
	return nil, text.String(), nil
}

// grid measures Table 4's rows once per invocation, announcing it in text.
func (p *paperRun) grid(ctx context.Context, text *strings.Builder) ([]experiment.Row, error) {
	if p.rows == nil {
		fmt.Fprintf(text, "measuring %d trials per cell...\n", p.sh.trials)
		rows, err := experiment.Table4Cfg(ctx, p.sh.runConfig())
		if err != nil {
			return nil, err
		}
		p.rows = rows
	}
	return p.rows, nil
}

func (p *paperRun) table(ctx context.Context, want func(int) bool) (any, string, error) {
	doc := map[string]any{}
	var text strings.Builder
	if want(1) {
		res, err := experiment.Table1Cfg(ctx, 10000, experiment.RunConfig{BaseSeed: p.sh.seed, Workers: p.sh.parallel})
		if err != nil {
			return nil, "", err
		}
		doc["table1"] = res
		text.WriteString(experiment.RenderTable1(res) + "\n")
	}
	if want(3) { // a fixed summary of the transformations: text only
		text.WriteString(experiment.Table3() + "\n")
	}
	if want(4) {
		if _, err := p.grid(ctx, &text); err != nil {
			return nil, "", err
		}
	}
	if want(2) {
		// Table 2 is trees I and II only: the grid's first two rows when it
		// has been measured, just those two otherwise.
		t2 := p.rows
		if t2 != nil {
			t2 = t2[:2]
		} else {
			fmt.Fprintf(&text, "measuring %d trials per cell...\n", p.sh.trials)
			var err error
			if t2, err = experiment.Table2Cfg(ctx, p.sh.runConfig()); err != nil {
				return nil, "", err
			}
		}
		doc["table2"] = t2
		text.WriteString(experiment.RenderRows(t2,
			"Table 2 — tree II recovery: detection + recovery time (s)") + "\n")
	}
	if want(4) {
		doc["table4"] = p.rows
		text.WriteString(experiment.RenderRows(p.rows,
			"Table 4 — overall MTTRs (s); rows are tree/oracle, columns failed components") + "\n")
	}
	if want(2) || want(4) {
		doc["paper"] = experiment.PaperTable4 // the published cell values, by row label
	}
	return doc, text.String(), nil
}

func (p *paperRun) headline(ctx context.Context) (any, string, error) {
	var text strings.Builder
	rows, err := p.grid(ctx, &text)
	if err != nil {
		return nil, "", err
	}
	h, err := experiment.Headline(rows)
	if err != nil {
		return nil, "", err
	}
	text.WriteString(experiment.RenderHeadline(h) + "\n")
	return map[string]any{"headline": h}, text.String(), nil
}

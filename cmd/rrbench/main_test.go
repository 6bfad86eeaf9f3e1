package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/experiment"
	"github.com/recursive-restart/mercury/internal/metrics"
)

// invoke runs one command line against the table, as main does.
func invoke(t *testing.T, table []campaign, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = drive(table, args, &out, &errb)
	return code, out.String(), errb.String()
}

// smallest is every campaign of the table at its smallest size, seed 2002.
// The text of each was written to testdata/<name>.golden by the binary of
// the commit before the campaign table existed, and must not be regenerated
// from this tree: it is what proves the table changed no output.
var smallest = map[string]struct {
	args string
	// workers is the flag that sets the worker count, "" when there is none.
	workers string
	// volatile matches the lines that carry wall-clock measurements.
	volatile string
	// textOnly marks a campaign with no document: -json must be refused.
	textOnly bool
}{
	"-all":        {args: "-all -trials 2", workers: "-parallel"},
	"-manual":     {args: "-manual -trials 2", workers: "-parallel"},
	"-sweep":      {args: "-sweep -trials 2", workers: "-parallel"},
	"-soak":       {args: "-soak", workers: "-parallel"},
	"-rejuv":      {args: "-rejuv", workers: "-parallel"},
	"-fig":        {args: "-fig 2", workers: "-parallel", textOnly: true},
	"-table":      {args: "-table 2 -trials 5", workers: "-parallel"},
	"-headline":   {args: "-headline -trials 2", workers: "-parallel"},
	"chaos":       {args: "chaos -trials 1 -trees IV -loss 0,0.1 -suspect 1,3 -horizon 30s", workers: "-parallel"},
	"fleet":       {args: "fleet -stations 12 -group 3 -horizon 20s -beacon 2s -mttf 2m", workers: "-cores", volatile: ` wall \(`},
	"microreboot": {args: "microreboot -trials 2 -faults 1", workers: "-parallel"},
	"oracle":      {args: "oracle -trials 2", workers: "-parallel"},
	"requests":    {args: "requests -trials 2 -rate 1000 -users 65536 -episodes 2 -gap 15s -warmup 2s", workers: "-parallel"},
	// Live TCP on wall-clock time: the rounds and the means are measurements.
	"shardchaos": {args: "shardchaos -shards 2 -dests 2 -frames 5", volatile: `\d/\d|recovery mean`},
}

// teeText wraps every campaign of the table so that the text a run returned
// reaches the test even when the driver prints the document instead.
func teeText(table []campaign, text *strings.Builder) []campaign {
	table = slices.Clone(table)
	for i := range table {
		bind := table[i].bind
		table[i].bind = func(fs *flag.FlagSet, sh *shared) runFunc {
			run := bind(fs, sh)
			if run == nil {
				return nil
			}
			return func(ctx context.Context) (any, string, error) {
				doc, t, err := run(ctx)
				text.WriteString(t)
				return doc, t, err
			}
		}
	}
	return table
}

// TestCampaignTable walks the table. Every entry must have a smallest size
// here, and at that size: the text printed at one worker equals the golden;
// at two workers -json prints one document that decodes and re-encodes to
// the same bytes, and the text of that same run equals the golden too.
func TestCampaignTable(t *testing.T) {
	for _, c := range campaigns() {
		tc, ok := smallest[c.name]
		if !ok {
			t.Errorf("campaign %q has no smallest size in this test", c.name)
			continue
		}
		t.Run(strings.TrimPrefix(c.name, "-"), func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", strings.TrimPrefix(c.name, "-")+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			checkText := func(what, text string) {
				t.Helper()
				if tc.volatile != "" {
					text = regexp.MustCompile(`(?m)^.*(?:`+tc.volatile+`).*\n`).ReplaceAllString(text, "")
				}
				if text != string(golden) {
					t.Errorf("%s: text differs from the golden\n--- got\n%s--- want\n%s", what, text, golden)
				}
			}
			args := func(workers string, more ...string) []string {
				a := strings.Fields(tc.args)
				if tc.workers != "" {
					a = append(a, tc.workers, workers)
				}
				return append(a, more...)
			}

			code, out, errOut := invoke(t, campaigns(), args("1")...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, errOut)
			}
			checkText("one worker", out)

			var text strings.Builder
			code, out, errOut = invoke(t, teeText(campaigns(), &text), args("2", "-json")...)
			checkText("two workers", text.String())
			if tc.textOnly {
				if code != 2 || out != "" {
					t.Fatalf("-json on a text-only campaign: exit %d, %d bytes of output; want exit 2 and none\n%s", code, len(out), errOut)
				}
				return
			}
			if code != 0 {
				t.Fatalf("-json: exit %d\n%s", code, errOut)
			}
			dec := json.NewDecoder(strings.NewReader(out))
			dec.UseNumber()
			var doc any
			if err := dec.Decode(&doc); err != nil {
				t.Fatalf("-json output does not decode: %v\n%s", err, out)
			}
			if dec.More() {
				t.Error("-json printed more than one document")
			}
			var again bytes.Buffer
			enc := json.NewEncoder(&again)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				t.Fatal(err)
			}
			if again.String() != out {
				t.Errorf("-json does not round-trip\n--- printed\n%s--- re-encoded\n%s", out, again.String())
			}
		})
	}
}

// TestOracleModesGolden pins the two oracle modes TestCampaignTable does not
// reach: the online proposal and a small random-tree validation. Their
// goldens were written by the binary of the commit before the campaigns
// shared one trial helper, and must not be regenerated from this tree.
func TestOracleModesGolden(t *testing.T) {
	for golden, args := range map[string]string{
		"oracle-online.golden":   "oracle -online",
		"oracle-validate.golden": "oracle -validate -trees 20",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "2"} {
			code, out, errOut := invoke(t, campaigns(), append(strings.Fields(args), "-parallel", workers)...)
			if code != 0 || out != string(want) {
				t.Errorf("rrbench %s -parallel %s: exit %d, stderr %q\n--- got\n%s--- want\n%s", args, workers, code, errOut, out, want)
			}
		}
	}
}

// TestNonPositiveTrials: every campaign that measures trials takes a
// non-positive -trials as a mistake in the command line — exit 2, the
// usage line, nothing on stdout — instead of a table of zeros, a NaN or a
// failed run. (-soak, -rejuv and -fig measure no trial count.)
func TestNonPositiveTrials(t *testing.T) {
	checked := 0
	for _, c := range campaigns() {
		args := strings.Fields(smallest[c.name].args)
		i := slices.Index(args, "-trials")
		if i < 0 {
			continue
		}
		checked++
		for _, n := range []string{"0", "-1"} {
			args[i+1] = n
			code, out, errOut := invoke(t, campaigns(), args...)
			if code != 2 || out != "" || !strings.Contains(errOut, usageLine(campaigns())) {
				t.Errorf("rrbench %s: exit %d, stdout %q, stderr %q; want exit 2, the usage line and no output",
					strings.Join(args, " "), code, out, errOut)
			}
		}
	}
	if checked < 9 {
		t.Errorf("only %d campaigns take -trials at their smallest size", checked)
	}
}

// TestJSONHonouredOrRefused: a mode with no document refuses -json with
// exit 2 and prints nothing, instead of printing text as if -json were not
// there.
func TestJSONHonouredOrRefused(t *testing.T) {
	for _, args := range []string{"oracle -online -json", "-table 3 -json", "-fig 1 -json"} {
		code, out, errOut := invoke(t, campaigns(), strings.Fields(args)...)
		if code != 2 || out != "" || !strings.Contains(errOut, "-json") {
			t.Errorf("rrbench %s: exit %d, stdout %q, stderr %q; want exit 2, nothing on stdout", args, code, out, errOut)
		}
	}
	// Next to a section that has a document the figures are left out, as under -all.
	if code, out, _ := invoke(t, campaigns(), "-fig", "1", "-headline", "-trials", "1", "-json"); code != 0 || !strings.Contains(out, `"headline"`) {
		t.Errorf("-fig 1 -headline -json: exit %d, output %q", code, out)
	}
}

// stub is a one-campaign table around run.
func stub(run runFunc) []campaign {
	return []campaign{{name: "stub", bind: func(fs *flag.FlagSet, sh *shared) runFunc {
		sh.trialFlags(fs, 3)
		return run
	}}}
}

// TestUsageRenderedFromTable: a mistake in the command line exits 2 with
// the usage line, and that line is rendered from whatever table the driver
// was handed.
func TestUsageRenderedFromTable(t *testing.T) {
	table := stub(func(context.Context) (any, string, error) { return nil, "ran\n", nil })
	want := "usage: rrbench {stub} [flags] | rrbench  [flags]"
	for _, args := range [][]string{nil, {"bogus"}, {"stub", "-bogus"}, {"stub", "stray"}, {"-bogus"}, {"stub", "-json"}} {
		code, out, errOut := invoke(t, table, args...)
		if code != 2 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("rrbench %v: exit %d, stdout %q, stderr %q; want exit 2 and the usage line %q", args, code, out, errOut, want)
		}
	}
	real := campaigns()
	for _, c := range real {
		name := c.name
		if c.arg != "" {
			name += " " + c.arg
		}
		if !strings.Contains(usageLine(real), name) {
			t.Errorf("usage line %q does not show %q", usageLine(real), name)
		}
	}
	if code, _, errOut := invoke(t, real, "wire"); code != 2 || !strings.Contains(errOut, usageLine(real)) {
		t.Errorf("rrbench wire: exit %d, stderr %q", code, errOut)
	}
}

// TestVerdictReachesExitCode: a campaign that returns its output and an
// error — it ran, and what it checked did not hold — prints the output and
// exits 1 in both formats. (rrbench shardchaos -json used to exit 0 on an
// isolation violation: the encoder returned before the check.)
func TestVerdictReachesExitCode(t *testing.T) {
	table := stub(func(context.Context) (any, string, error) {
		return map[string]any{"isolated": false}, "isolation violated\n", errors.New("verdict")
	})
	if code, out, errOut := invoke(t, table, "stub"); code != 1 || out != "isolation violated\n" || !strings.Contains(errOut, "verdict") {
		t.Errorf("text: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, out, errOut := invoke(t, table, "stub", "-json"); code != 1 || !strings.Contains(out, `"isolated": false`) || !strings.Contains(errOut, "verdict") {
		t.Errorf("-json: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestProfilesSurviveFailure: the driver starts and stops the profiles
// around any campaign, and a failing one still leaves a complete, closed
// CPU profile and a heap profile behind.
func TestProfilesSurviveFailure(t *testing.T) {
	table := stub(func(context.Context) (any, string, error) {
		for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); {
		}
		return nil, "", errors.New("campaign failed")
	})
	dir := t.TempDir()
	for i := 0; i < 2; i++ { // a profile left running would refuse the second start
		cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
		code, _, errOut := invoke(t, table, "stub", "-cpuprofile", cpu, "-memprofile", mem)
		if code != 1 || !strings.Contains(errOut, "campaign failed") || strings.Contains(errOut, "profil") {
			t.Fatalf("run %d: exit %d, stderr %q", i, code, errOut)
		}
		for _, path := range []string{cpu, mem} {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
				t.Errorf("%s: %d profile bytes, %v; want a complete gzip stream", path, n, err)
			}
			_ = f.Close()
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			continue // no procfs: completeness above is the evidence
		}
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, dir) {
				t.Errorf("%s is still open after the run", target)
			}
		}
	}
}

// TestJSONLowering pins the one place a Duration becomes seconds and the
// one place a Sample becomes its summary.
func TestJSONLowering(t *testing.T) {
	var s metrics.Sample
	s.Add(time.Second)
	s.Add(3 * time.Second)
	type inner struct {
		Gap   time.Duration `json:"gap_s"`
		Label string        `json:"label"`
	}
	doc := struct {
		*inner
		Label  string           `json:"label"` // replaces the promoted one
		Rows   []experiment.Row `json:"rows"`
		Hidden int              `json:"-"`
		Value  metrics.Sample   `json:"value"`
		None   *metrics.Sample  `json:"none"`
	}{
		inner: &inner{Gap: 1500 * time.Millisecond, Label: "inner"},
		Label: "outer",
		Rows:  []experiment.Row{{Label: "I/perfect", Cells: map[string]*metrics.Sample{"rtu": &s}}},
		Value: s,
	}
	got, err := json.Marshal(jsonValue(map[string]any{"doc": doc, "horizon_s": 2 * time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	p95, _ := s.Percentile(95) // interpolated, then rounded to a Duration: not a round number
	p95s, _ := json.Marshal(p95.Seconds())
	summary := `{"max_s":3,"mean_s":2,"min_s":1,"n":2,"p95_s":` + string(p95s) + `,"stddev_s":1.414213562}`
	want := `{"doc":{"gap_s":1.5,"label":"outer","none":null,` +
		`"rows":[{"cells":{"rtu":` + summary + `},"label":"I/perfect"}],"value":` + summary + `},"horizon_s":120}`
	if string(got) != want {
		t.Errorf("lowered document\n got %s\nwant %s", got, want)
	}
}

// fencedBlock matches ``` fenced code blocks; inlineSpan matches `inline
// code` spans. Together they delimit the "code contexts" of a doc — the
// places where a `rrbench <sub>` mention is a command line, not prose.
var (
	fencedBlock    = regexp.MustCompile("(?s)```.*?```")
	inlineSpan     = regexp.MustCompile("`[^`\n]+`")
	rrbenchMention = regexp.MustCompile(`rrbench\s+([a-z][a-z0-9]*)\b`)
)

// TestDocsRRBenchSubcommands checks both directions of the subcommand
// contract between the top-level docs and the campaign table: every
// `rrbench <sub>` command the docs show must be a row of the table, and
// every subcommand row must be demonstrated in at least one doc.
func TestDocsRRBenchSubcommands(t *testing.T) {
	known := map[string]bool{}
	for _, c := range campaigns() {
		if !strings.HasPrefix(c.name, "-") {
			known[c.name] = true
		}
	}
	docs, err := filepath.Glob(filepath.Join("..", "..", "*.md"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no markdown docs found at the repo root (%v)", err)
	}
	// These record which commands existed when they were written, not which
	// exist: a deleted subcommand stays in them.
	history := map[string]bool{"CHANGES.md": true, "ISSUE.md": true, "ROADMAP.md": true}
	mentioned := map[string]bool{}
	for _, doc := range docs {
		if history[filepath.Base(doc)] {
			continue
		}
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		body := string(raw)
		// Strip fenced blocks before scanning for inline spans so a stray
		// backtick inside a block isn't double-counted.
		ctxs := append(fencedBlock.FindAllString(body, -1),
			inlineSpan.FindAllString(fencedBlock.ReplaceAllString(body, ""), -1)...)
		for _, ctx := range ctxs {
			for _, m := range rrbenchMention.FindAllStringSubmatch(ctx, -1) {
				if !known[m[1]] {
					t.Errorf("%s shows `rrbench %s`, which is not in the campaign table", filepath.Base(doc), m[1])
				}
				mentioned[m[1]] = true
			}
		}
	}
	for sub := range known {
		if !mentioned[sub] {
			t.Errorf("rrbench subcommand %q is not demonstrated in any top-level doc", sub)
		}
	}
}

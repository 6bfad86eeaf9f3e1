package mercury_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/trace"
)

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks checks every intra-repo link in the top-level markdown
// docs: a renamed or deleted file must not leave a dangling reference in
// README/DESIGN/EXPERIMENTS/OPERATIONS. External URLs and pure anchors are
// skipped (no network in tests); anchor suffixes on file links are
// stripped before the existence check. CI runs this as its link check.
func TestMarkdownLinks(t *testing.T) {
	docs, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no markdown docs found at repo root")
	}
	checked := 0
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			path := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, m[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no intra-repo links found; the link check is vacuous")
	}
}

// rootDocs returns the top-level markdown docs, failing the test when the
// glob is empty (so a working-directory mishap can't make the checks
// vacuously pass).
func rootDocs(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no markdown docs found at repo root")
	}
	return docs
}

// fencedBlock matches ``` fenced code blocks; inlineSpan matches `inline
// code` spans. Together they delimit the "code contexts" of a doc — the
// places where a name is code, not prose.
var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineSpan  = regexp.MustCompile("`[^`\n]+`")
)

// codeContexts returns every fenced block and inline span in a doc body.
func codeContexts(body string) []string {
	ctxs := fencedBlock.FindAllString(body, -1)
	// Strip fenced blocks before scanning for inline spans so a stray
	// backtick inside a block isn't double-counted.
	rest := fencedBlock.ReplaceAllString(body, "")
	return append(ctxs, inlineSpan.FindAllString(rest, -1)...)
}

// TestBenchHistory checks BENCH_HISTORY.json, the repository's committed
// performance trajectory: one record per PR, and every record names exactly
// the workloads and end-to-end metrics BENCHMARK.json declares — a record
// written against another benchmark definition cannot be compared with its
// neighbours.
func TestBenchHistory(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	var history []struct {
		PR      int                           `json:"pr"`
		Commit  string                        `json:"commit"`
		Seed    int64                         `json:"seed"`
		Runs    int                           `json:"runs"`
		Medians map[string]map[string]float64 `json:"medians"`
	}
	readJSON := func(path string, into any, strict bool) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		if strict {
			dec.DisallowUnknownFields()
		}
		if err := dec.Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	readJSON("BENCHMARK.json", &decl, false) // declares more than this test reads
	readJSON("BENCH_HISTORY.json", &history, true)
	if len(decl.Workloads) == 0 || len(decl.EndToEnd) == 0 || len(history) == 0 {
		t.Fatalf("%d workloads, %d end-to-end metrics, %d records: the check is vacuous",
			len(decl.Workloads), len(decl.EndToEnd), len(history))
	}
	for i, rec := range history {
		if rec.PR <= 0 || rec.Commit == "" || rec.Runs < 3 {
			t.Errorf("record %d: pr %d, commit %q, %d runs; want a PR number, a commit and at least 3 runs", i, rec.PR, rec.Commit, rec.Runs)
		}
		if i > 0 && rec.PR <= history[i-1].PR {
			t.Errorf("record %d: pr %d does not follow pr %d", i, rec.PR, history[i-1].PR)
		}
		if len(rec.Medians) != len(decl.Workloads) {
			t.Errorf("pr %d: %d workloads, BENCHMARK.json declares %d", rec.PR, len(rec.Medians), len(decl.Workloads))
		}
		for _, w := range decl.Workloads {
			metrics, ok := rec.Medians[w.Name]
			if !ok {
				t.Errorf("pr %d: no workload %q", rec.PR, w.Name)
				continue
			}
			if len(metrics) != len(decl.EndToEnd) {
				t.Errorf("pr %d %s: %d metrics, BENCHMARK.json declares %d", rec.PR, w.Name, len(metrics), len(decl.EndToEnd))
			}
			for _, m := range decl.EndToEnd {
				if _, ok := metrics[m.Name]; !ok {
					t.Errorf("pr %d %s: no metric %q", rec.PR, w.Name, m.Name)
				}
			}
		}
	}
}

// metricTok matches a mercury_* metric family mention in a doc. The
// trailing [a-z0-9] keeps prefix mentions like `mercury_bus_shard_*`
// from capturing the underscore.
var metricTok = regexp.MustCompile(`mercury_[a-z0-9_]*[a-z0-9]`)

// promSuffixes are the per-series suffixes a Prometheus histogram or
// summary family fans out to; docs may name a concrete series while the
// code registers only the family.
var promSuffixes = []string{"_bucket", "_count", "_sum"}

// currentDocs are the root docs that describe the tree as it is. The
// change ledger is left out: it records what was deleted, by name.
var currentDocs = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "ROADMAP.md"}

// TestDocsMetricFamilies checks that every mercury_* metric the current
// docs mention exists in the code: each token (after stripping histogram
// series suffixes) must appear in some .go file, either as an exact
// literal or as the prefix of one (docs legitimately show grep patterns
// like `mercury_rec`). A renamed or deleted metric must not leave the
// operator guide pointing at a family /metrics will never serve.
func TestDocsMetricFamilies(t *testing.T) {
	var corpus strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		corpus.Write(body)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	code := corpus.String()

	checked := 0
	for _, doc := range currentDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, tok := range metricTok.FindAllString(string(body), -1) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			family := tok
			for _, suf := range promSuffixes {
				family = strings.TrimSuffix(family, suf)
			}
			if !strings.Contains(code, family) {
				t.Errorf("%s mentions metric %q, which appears nowhere in the code", doc, tok)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no mercury_* metric mentions found in docs; the check is vacuous")
	}
}

// TestDocsPolicies checks that no recovery policy exists undocumented:
// every row of core's policy table — the table mercury.Config.Policy,
// rt.NodeConfig.OracleName, mp and mercuryd -oracle all resolve through —
// is named in OPERATIONS.md, mercuryd's -oracle help is rendered from the
// same table, and every mercury.Policy constant is one of its rows.
func TestDocsPolicies(t *testing.T) {
	ops, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, ctx := range codeContexts(string(ops)) {
		spans[strings.Trim(ctx, "`")] = true
	}
	names := core.PolicyNames()
	if len(names) == 0 {
		t.Fatal("core.PolicyNames is empty; the check is vacuous")
	}
	for _, name := range names {
		if !spans[name] {
			t.Errorf("policy %q is not documented in OPERATIONS.md (want a `%s` code span)", name, name)
		}
	}
	main, err := os.ReadFile(filepath.Join("cmd", "mercuryd", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(main), "core.PolicyHelp()") {
		t.Error("mercuryd's -oracle help text is not rendered from core.PolicyHelp")
	}
	for _, p := range mercury.AllPolicies {
		if _, err := core.PolicyByName(string(p), core.PolicyDeps{}); err != nil {
			t.Errorf("mercury.Policy %q: %v", p, err)
		}
	}
}

// TestDocsTraceEventFields: DESIGN.md §7.3 names every exported field of
// trace.Event, so a field added for a new kind of line is documented where
// the trace's contract is.
func TestDocsTraceEventFields(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### 7.3 The trace event")
	if !ok {
		t.Fatal("DESIGN.md has no §7.3 The trace event")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	typ := reflect.TypeOf(trace.Event{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() && !strings.Contains(section, "`"+f.Name+"`") {
			t.Errorf("trace.Event.%s is not named in DESIGN.md §7.3", f.Name)
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
)

// bootObs starts an in-process station with the observability listener on
// an ephemeral port and returns the view, the base URL, and a teardown.
func bootObs(t *testing.T, tree string, scale float64) (served, string) {
	t.Helper()
	node, err := rt.StartNode(rt.NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      scale,
		TreeName:   tree,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	view := served{Host: node}
	t.Cleanup(view.Stop)
	srv, err := startObs("127.0.0.1:0", view)
	if err != nil {
		t.Fatalf("startObs: %v", err)
	}
	t.Cleanup(srv.Close)
	return view, "http://" + srv.Addr()
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return body
}

// TestObsScrapeDuringRecovery hammers all three endpoints concurrently
// while a full kill→detect→restart→ready cycle runs. Under -race this
// pins the contract that scrapes never race the dispatcher.
func TestObsScrapeDuringRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("live station test")
	}
	view, base := bootObs(t, "IV", 25)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/healthz", "/tree"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					continue // listener may be mid-teardown at test end
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	if err := view.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var ok bool
		view.Disp.Call(func() {
			ok = view.Mgr.AllServing(view.Comps...)
		})
		if ok {
			var inc int
			view.Disp.Call(func() { inc, _ = view.Mgr.Incarnation(station.RTU) })
			if inc >= 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery before deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// After recovery the plane must reflect the cycle.
	metrics := string(get(t, base+"/metrics"))
	for _, want := range []string{
		"mercury_fd_suspicions_total",
		"mercury_rec_restarts_total",
		"mercury_proc_startup_seconds_bucket",
		"mercury_bus_tcp_frames_total{dir=\"in\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// FD's suspicion clears on its next successful probe of the restarted
	// component, so /healthz may lag the ready event by up to one ping
	// period: poll for the steady state.
	var health healthReport
	healthDeadline := time.Now().Add(30 * time.Second)
	for {
		if err := json.Unmarshal(get(t, base+"/healthz"), &health); err != nil {
			t.Fatalf("healthz decode: %v", err)
		}
		if health.Status == "ok" || time.Now().After(healthDeadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status = %q after recovery, want ok", health.Status)
	}
	if hc := health.Components[station.RTU]; hc.Incarnation < 2 {
		t.Errorf("rtu incarnation = %d, want >= 2", hc.Incarnation)
	}
}

// TestObsTreeReport checks the /tree body structure against the booted
// station: tree name, policy, and per-component state under the cells. On
// the m-variant tree the subcomponent rows carry the same lifecycle fields.
func TestObsTreeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("live station test")
	}
	comps := []string{station.MBus, station.Fedr, station.Pbcom, station.RTU, station.SES, station.STR}
	for _, tree := range []string{"IV", "IVm"} {
		t.Run(tree, func(t *testing.T) {
			_, base := bootObs(t, tree, 50)
			var rep treeReportBody
			if err := json.Unmarshal(get(t, base+"/tree"), &rep); err != nil {
				t.Fatalf("tree decode: %v", err)
			}
			if rep.Tree != tree || rep.Policy != "escalating" || rep.Root == nil {
				t.Fatalf("tree header = %q policy = %q root-nil=%v", rep.Tree, rep.Policy, rep.Root == nil)
			}
			// Every split-layout component (and, on IVm, every
			// subcomponent) must appear exactly once in the tree.
			want := append([]string(nil), comps...)
			if tree == "IVm" {
				for parent, shorts := range station.MicroSubs() {
					for _, short := range shorts {
						want = append(want, proc.SubName(parent, short))
					}
				}
			}
			seen := map[string]int{}
			var walk func(n *treeNode)
			walk = func(n *treeNode) {
				for name, tc := range n.Components {
					seen[name]++
					if tc.State != "running" {
						t.Errorf("component %s state = %q, want running", name, tc.State)
					}
					if tc.Incarnation < 1 || tc.LastStart == "" || tc.LastReady == "" {
						t.Errorf("component %s missing lifecycle fields: %+v", name, tc)
					}
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(rep.Root)
			for _, comp := range want {
				if seen[comp] != 1 {
					t.Errorf("component %s appears %d times in /tree, want 1", comp, seen[comp])
				}
			}
		})
	}
}

// TestObsMetricsContentType pins the Prometheus exposition content type
// and that the build-info gauge carries the run's mode and tree labels.
func TestObsMetricsContentType(t *testing.T) {
	if testing.Short() {
		t.Skip("live station test")
	}
	_, base := bootObs(t, "IV", 50)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	want := `mode="in-process",tree="IV"`
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing build-info labels %s", want)
	}
}

// TestBuildVersion pins that -version always has something to print.
func TestBuildVersion(t *testing.T) {
	if v := buildVersion(); v == "" {
		t.Fatal("buildVersion is empty")
	}
}

// docFamily matches a metric family in the first cell of an OPERATIONS.md
// metric-table row: a full mercury_* name, or the `_suffix` shorthand a row
// uses for a sibling of its first name.
var docFamily = regexp.MustCompile("`(mercury_[a-z0-9_]+|_[a-z0-9_]+)")

// TestDocsMetricFamiliesServed holds OPERATIONS.md's metric tables against
// a scrape: every family they list must be in what /metrics serves for a
// micro-mode station, built exactly as startObs builds it. (The root
// TestDocsMetricFamilies only greps the source for the name, so a family
// that is defined but never registered gets past it.)
func TestDocsMetricFamiliesServed(t *testing.T) {
	h, err := rt.NewHost(rt.NodeConfig{TreeName: "IVm"}, assemble.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	var sb strings.Builder
	if _, err := buildRegistry(served{Host: h}).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}

	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, row := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(row, "| `mercury_") {
			continue
		}
		cell := strings.SplitN(row, "|", 3)[1]
		lead := ""
		for _, m := range docFamily.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if lead == "" {
				lead = name
			}
			ok := families[name]
			if strings.HasPrefix(name, "_") {
				// Shorthand: some served family of the lead's layer
				// (mercury_<layer>_…) ends in it.
				layer := strings.Join(strings.SplitN(lead, "_", 3)[:2], "_") + "_"
				for f := range families {
					ok = ok || strings.HasPrefix(f, layer) && strings.HasSuffix(f, name)
				}
			}
			if !ok {
				t.Errorf("OPERATIONS.md lists %s (row of %s), which a micro-mode /metrics does not serve", name, lead)
			}
			checked++
		}
	}
	if checked < 60 {
		t.Errorf("only %d families found in OPERATIONS.md's metric tables; the row pattern no longer matches", checked)
	}
}

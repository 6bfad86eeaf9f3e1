package main

import (
	"encoding/json"
	"net"
	"net/http"
	"runtime/debug"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/ckpt"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/mp"
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file is mercuryd's observability plane: an opt-in local HTTP
// listener (-obs) serving three endpoints.
//
//	/metrics  Prometheus text exposition of every mercury_* family
//	/healthz  the failure detector's component liveness view (JSON)
//	/tree     the active restart tree with per-node runtime state (JSON)
//
// /metrics reads only atomic counters and never touches the dispatcher.
// /healthz and /tree snapshot dispatcher-owned state (manager, FD, REC)
// via Disp.Call, so a scrape can never race a recovery in progress.

// buildVersion reports the module build version baked in by the Go
// toolchain (satisfying -version without any build-time stamping).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		v := bi.Main.Version
		if v == "" || v == "(devel)" {
			v = "devel"
		}
		return v + " " + bi.GoVersion
	}
	return "unknown"
}

// obsServer is the running observability listener.
type obsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (o *obsServer) Addr() string { return o.ln.Addr().String() }

// Close shuts the listener down.
func (o *obsServer) Close() { _ = o.srv.Close() }

// buildRegistry gathers every instrumented layer's mercury_* families into
// the process-wide registry /metrics serves. The store and checkpoint
// families exist only for a micro-mode station.
func buildRegistry(view served) *obs.Registry {
	reg := obs.NewRegistry()
	bus.RegisterMetrics(reg)
	core.RegisterMetrics(reg)
	proc.RegisterMetrics(reg)
	rt.RegisterMetrics(reg)
	mp.RegisterMetrics(reg)
	sim.RegisterMetrics(reg)
	if view.Store != nil {
		store.RegisterMetrics(reg)
		store.RegisterStoreGauges(reg, view.Store)
		ckpt.RegisterMetrics(reg)
	}
	start := time.Now()
	reg.RegisterGaugeFunc("mercury_uptime_seconds",
		"Wall-clock seconds since the observability listener started.",
		func() float64 { return time.Since(start).Seconds() })
	reg.RegisterGaugeFunc("mercury_build_info",
		"Constant 1, labeled with build and run metadata.",
		func() float64 { return 1 },
		"version", buildVersion(), "mode", view.mode(), "tree", view.Tree.Name)
	return reg
}

// startObs mounts the three endpoints and serves them on addr.
func startObs(addr string, view served) (*obsServer, error) {
	reg := buildRegistry(view)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, view.health())
	})
	mux.HandleFunc("/tree", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, view.treeReport())
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &obsServer{ln: ln, srv: srv}, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// healthComponent is one component's liveness as FD and the process
// manager see it.
type healthComponent struct {
	State       string `json:"state"`
	Serving     bool   `json:"serving"`
	Suspected   bool   `json:"suspected"`
	Incarnation int    `json:"incarnation"`
}

// healthReport is the /healthz body. Status is "ok" when every component
// serves and none is suspected, else "degraded".
type healthReport struct {
	Status     string                     `json:"status"`
	Components map[string]healthComponent `json:"components"`
}

// health snapshots liveness on the dispatcher.
func (v served) health() healthReport {
	rep := healthReport{Status: "ok", Components: make(map[string]healthComponent)}
	names := append(v.Components(), xmlcmd.AddrFD, xmlcmd.AddrREC)
	v.Disp.Call(func() {
		for _, name := range names {
			st, err := v.Mgr.State(name)
			if err != nil {
				continue
			}
			inc, _ := v.Mgr.Incarnation(name)
			hc := healthComponent{
				State:       st.String(),
				Serving:     v.Mgr.Serving(name),
				Suspected:   v.FD.Suspected(name),
				Incarnation: inc,
			}
			if !hc.Serving || hc.Suspected {
				rep.Status = "degraded"
			}
			rep.Components[name] = hc
		}
	})
	return rep
}

// treeComponent is one component's runtime state in the /tree body.
type treeComponent struct {
	State       string `json:"state"`
	Incarnation int    `json:"incarnation"`
	Restarts    int    `json:"restarts"`
	LastStart   string `json:"last_start,omitempty"`
	LastReady   string `json:"last_ready,omitempty"`
	PID         int    `json:"pid,omitempty"`
}

// treeNode is one restart cell in the /tree body.
type treeNode struct {
	Label      string                   `json:"label"`
	Components map[string]treeComponent `json:"components,omitempty"`
	Children   []*treeNode              `json:"children,omitempty"`
}

// treeReportBody is the /tree body: the active tree, the oracle policy in
// force, and the recursive cell structure with live per-component state.
type treeReportBody struct {
	Tree   string    `json:"tree"`
	Policy string    `json:"policy"`
	Mode   string    `json:"mode"`
	Root   *treeNode `json:"root"`
}

// treeReport snapshots the restart tree on the dispatcher.
func (v served) treeReport() treeReportBody {
	rep := treeReportBody{Tree: v.Tree.Name, Mode: v.mode()}
	v.Disp.Call(func() {
		rep.Policy = v.REC.Oracle().Name()
		rep.Root = v.renderNode(v.REC.Tree().Root())
	})
	return rep
}

// renderNode converts one restart cell; dispatcher context only.
func (v served) renderNode(n *core.Node) *treeNode {
	out := &treeNode{Label: n.Label()}
	if len(n.Components) > 0 {
		out.Components = make(map[string]treeComponent, len(n.Components))
		for _, comp := range n.Components {
			tc := treeComponent{}
			if st, err := v.Mgr.State(comp); err == nil {
				tc.State = st.String()
			}
			tc.Incarnation, _ = v.Mgr.Incarnation(comp)
			tc.Restarts, _ = v.Mgr.Restarts(comp)
			if at, err := v.Mgr.StartedAt(comp); err == nil && !at.IsZero() {
				tc.LastStart = at.Format(time.RFC3339Nano)
			}
			if at, err := v.Mgr.ReadyAt(comp); err == nil && !at.IsZero() {
				tc.LastReady = at.Format(time.RFC3339Nano)
			}
			if v.pid != nil {
				tc.PID = v.pid(comp)
			}
			out.Components[comp] = tc
		}
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, v.renderNode(c))
	}
	return out
}

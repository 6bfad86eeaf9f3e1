package station

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
)

// TestDocsCalibrationTable checks DESIGN.md §6 against the calibration
// both ways: every row names a constant and states its value, and every
// constant declared in calibration.go has a row.
func TestDocsCalibrationTable(t *testing.T) {
	values := map[string]any{
		"MBusStartup": MBusStartup, "FedrcomStartup": FedrcomStartup, "FedrStartup": FedrStartup,
		"PbcomStartup": PbcomStartup, "SesStartup": SesStartup, "StrStartup": StrStartup,
		"RtuStartup": RtuStartup, "StartupJitterFrac": StartupJitterFrac, "SyncSettle": SyncSettle,
		"syncRetransmit": syncRetransmit, "connectRetransmit": connectRetransmit,
		"pbcomAgeLimit": pbcomAgeLimit, "tuneTime": tuneTime, "TelemetryPeriod": TelemetryPeriod,
		"healthPeriod": healthPeriod, "antennaSlewRateRad": antennaSlewRateRad,
		"antennaBeamwidthRad": antennaBeamwidthRad, "carrierHz": carrierHz,
		"microrebootTime": microrebootTime, "reattachSettle": reattachSettle,
		"subFaultDetect": subFaultDetect, "subReReport": subReReport, "sessionTTL": sessionTTL,
		"modelDetectSeconds": modelDetectSeconds, "modelMicrorebootSeconds": modelMicrorebootSeconds,
		"proc.DefaultContentionPerPeer": proc.DefaultContentionPerPeer,
	}

	// Every constant of calibration.go is in values, so it needs a row.
	f, err := parser.ParseFile(token.NewFileSet(), "calibration.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					declared++
					if _, ok := values[name.Name]; !ok {
						t.Errorf("calibration.go declares %s, which the table check does not know", name.Name)
					}
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("no constants found in calibration.go")
	}

	body, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)
	start := strings.Index(doc, "## 6. Calibration notes")
	if start < 0 {
		t.Fatal("DESIGN.md has no §6")
	}
	section := doc[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		name, cell := strings.Trim(strings.TrimSpace(cells[1]), "`"), strings.TrimSpace(cells[2])
		rows[name] = true
		want, ok := values[name]
		if !ok {
			t.Errorf("DESIGN.md §6 row %s names no calibration constant", name)
			continue
		}
		if !sameValue(want, cell) {
			t.Errorf("DESIGN.md §6 states %s = %s, the code %v", name, cell, want)
		}
	}
	var missing []string
	for name := range values {
		if !rows[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("DESIGN.md §6 has no row for %v", missing)
	}
}

// sameValue reports whether a table cell states v: a duration in Go's
// syntax, any other number as a float.
func sameValue(v any, cell string) bool {
	if d, ok := v.(time.Duration); ok {
		got, err := time.ParseDuration(cell)
		return err == nil && got == d
	}
	got, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return false
	}
	switch v := v.(type) {
	case int:
		return got == float64(v)
	case float64:
		return got == v
	}
	return false
}

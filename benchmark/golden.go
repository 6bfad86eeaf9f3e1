package main

import (
	"embed"
	"encoding/json"
	"os"
	"path/filepath"
)

// The goldens pin every simulated statistic of the sim workloads for the
// default seed at the default size. They change only in a PR of their
// own that intends a model change and claims no gain (see README.md).
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile is one workload's pinned digests, keyed by work size.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(workload string) goldenFile {
	var g goldenFile
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return g
	}
	_ = json.Unmarshal(data, &g) // a malformed golden pins nothing; the test catches it
	return g
}

// writeGolden replaces a workload's golden file in the source tree (the
// working directory is the checkout root). The next build embeds it.
func writeGolden(workload string, g goldenFile) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden", workload+".json"), append(data, '\n'), 0o644)
}

func (g goldenFile) lookup(seed int64, key string) (string, bool) {
	if seed != g.Seed {
		return "", false
	}
	d, ok := g.Digests[key]
	return d, ok
}

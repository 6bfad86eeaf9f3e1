package mercury

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// ackCounter is a client process that counts the acknowledgements it gets.
type ackCounter struct{ ok, failed int }

func (a *ackCounter) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }
func (a *ackCounter) Receive(_ proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindAck {
		if m.Ack.OK {
			a.ok++
		} else {
			a.failed++
		}
	}
}

// TestStrRefusesNonFinitePointing: strconv parses "NaN" and "Inf", so a
// point command carrying one used to be acknowledged, become the tracker's
// target and — in micro mode — be saved to the crash-only store, where the
// next microreboot would have found it. The tracker now drops it like any
// other malformed command, classic and micro.
func TestStrRefusesNonFinitePointing(t *testing.T) {
	for _, tree := range []string{"IV", "IVm"} {
		sys := bootSystem(t, Config{Seed: 11, TreeName: tree})
		gate := &ackCounter{}
		if err := sys.Mgr.Register("gate", func() proc.Handler { return gate }); err != nil {
			t.Fatal(err)
		}
		if err := sys.Mgr.Start("gate"); err != nil {
			t.Fatal(err)
		}
		// Each command is watched for 50 ms: long enough for the
		// acknowledgement, too short for ses's next point to arrive.
		point := func(az, el string) (acked bool, saved []byte, version uint64) {
			before := gate.ok
			sys.Bus.Send(xmlcmd.NewCommand("gate", station.STR, 1, "point", "azRad", az, "elRad", el))
			if err := sys.RunFor(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if sys.Store != nil {
				saved, version, _ = sys.Store.Get(station.KeyTrackTarget)
			}
			return gate.ok > before, saved, version
		}
		if err := sys.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		acked, _, v0 := point("1.25", "0.5")
		if !acked {
			t.Fatalf("tree %s: a finite point command was not acknowledged", tree)
		}
		for _, bad := range [][2]string{{"NaN", "0.5"}, {"1.25", "Inf"}, {"-Infinity", "nan"}} {
			acked, saved, v := point(bad[0], bad[1])
			if acked {
				t.Errorf("tree %s: point %v was acknowledged", tree, bad)
			}
			if sys.Store == nil {
				continue
			}
			az, rest, _ := store.ParseFloat64(saved)
			el, _, _ := store.ParseFloat64(rest)
			if v != v0 || az != 1.25 || el != 0.5 {
				t.Errorf("tree %s: point %v reached the store: version %d → %d, target (%v, %v)", tree, bad, v0, v, az, el)
			}
		}
		if gate.failed != 0 {
			t.Errorf("tree %s: %d negative acknowledgements", tree, gate.failed)
		}
	}
}

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

// pointer sends str one point command and reports whether it was
// acknowledged, refused (a negative acknowledgement) and what str's saved
// target then holds.
type pointer func(az, el string) (acked, refused bool, saved []byte, version uint64)

// pointProbe boots tree with a gate client and returns its pointer and
// whether the tree saves str's target to a store.
func pointProbe(t *testing.T, tree string) (pointer, bool) {
	t.Helper()
	sys := bootSystem(t, Config{Seed: 11, TreeName: tree})
	gate := &ackCounter{}
	if err := sys.Mgr.Register("gate", func() proc.Handler { return gate }); err != nil {
		t.Fatal(err)
	}
	if err := sys.Mgr.Start("gate"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Each command is watched for 50 ms: long enough for the
	// acknowledgement, too short for ses's next point to arrive.
	return func(az, el string) (acked, refused bool, saved []byte, version uint64) {
		ok, failed := gate.ok, gate.failed
		sys.Bus.Send(xmlcmd.NewCommand("gate", station.STR, 1, "point", "azRad", az, "elRad", el))
		if err := sys.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if sys.Store != nil {
			saved, version, _ = sys.Store.Get(station.KeyTrackTarget)
		}
		return gate.ok > ok, gate.failed > failed, saved, version
	}, sys.Store != nil
}

// checkRefused sends each bad pointing and fails unless str leaves its
// saved target at the last good one, (1.25, 0.5) at version v0; refused
// says whether str must answer with a negative acknowledgement or drop the
// command silently.
func checkRefused(t *testing.T, tree string, bad [][2]string, refused bool) {
	t.Helper()
	point, stored := pointProbe(t, tree)
	acked, _, _, v0 := point("1.25", "0.5")
	if !acked {
		t.Fatalf("tree %s: a good point command was not acknowledged", tree)
	}
	for _, b := range bad {
		acked, nak, saved, v := point(b[0], b[1])
		if acked || nak != refused {
			t.Errorf("tree %s: point %v: acknowledged %v, refused %v; want refused %v", tree, b, acked, nak, refused)
		}
		if !stored {
			continue
		}
		az, rest, _ := store.ParseFloat64(saved)
		el, _, _ := store.ParseFloat64(rest)
		if v != v0 || az != 1.25 || el != 0.5 {
			t.Errorf("tree %s: point %v reached the store: version %d → %d, target (%v, %v)", tree, b, v0, v, az, el)
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
		checkRefused(t, tree, [][2]string{{"NaN", "0.5"}, {"1.25", "Inf"}, {"-Infinity", "nan"}}, false)
	}
}

// TestStrRefusesOutOfRangePointing: a finite look angle outside [0, 2π) ×
// [−π/2, π/2] — 1e300 say — used to be acknowledged, tracked and saved. It
// is now refused, as the tuner refuses a bad tune, and reaches neither the
// target nor the store.
func TestStrRefusesOutOfRangePointing(t *testing.T) {
	for _, tree := range []string{"IV", "IVm"} {
		bad := [][2]string{{"1e300", "0.5"}, {"-0.1", "0.5"}, {"6.3", "0.5"}, {"1.25", "1.6"}, {"1.25", "-1.6"}}
		checkRefused(t, tree, bad, true)
	}
}

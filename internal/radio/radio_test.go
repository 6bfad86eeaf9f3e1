package radio

import (
	"errors"
	"testing"
)

func TestPortLifecycle(t *testing.T) {
	p := NewSerialPort()
	if p.State() != PortClosed {
		t.Fatalf("initial state = %v", p.State())
	}
	if err := p.BeginOpen(); err != nil {
		t.Fatalf("BeginOpen: %v", err)
	}
	if p.State() != PortNegotiating {
		t.Fatalf("state = %v, want negotiating", p.State())
	}
	if err := p.Write([]byte("x")); !errors.Is(err, ErrPortNotOpen) {
		t.Fatalf("Write during negotiation = %v", err)
	}
	if err := p.FinishNegotiation(); err != nil {
		t.Fatalf("FinishNegotiation: %v", err)
	}
	if p.State() != PortOpen {
		t.Fatalf("state = %v, want open", p.State())
	}
	if err := p.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if p.Writes() != 1 {
		t.Fatalf("writes = %d", p.Writes())
	}
	p.Close()
	if p.State() != PortClosed || p.Writes() != 0 {
		t.Fatal("Close did not reset")
	}
}

func TestPortDoubleOpenRejected(t *testing.T) {
	p := NewSerialPort()
	_ = p.BeginOpen()
	if err := p.BeginOpen(); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("double BeginOpen = %v", err)
	}
	_ = p.FinishNegotiation()
	if err := p.BeginOpen(); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("BeginOpen while open = %v", err)
	}
}

func TestFinishWithoutBegin(t *testing.T) {
	p := NewSerialPort()
	if err := p.FinishNegotiation(); !errors.Is(err, ErrNotNegotiating) {
		t.Fatalf("err = %v", err)
	}
}

func openPort(t *testing.T) *SerialPort {
	t.Helper()
	p := NewSerialPort()
	if err := p.BeginOpen(); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishNegotiation(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTransceiverTune(t *testing.T) {
	p := openPort(t)
	tr := NewTransceiver(p, UHFAmateur)
	if err := tr.BeginTune(437.1e6); err != nil {
		t.Fatalf("BeginTune: %v", err)
	}
	if tr.Settled() || tr.Locked() {
		t.Fatal("settled before FinishTune")
	}
	tr.FinishTune()
	if !tr.Settled() || !tr.Locked() {
		t.Fatal("not locked after FinishTune")
	}
	if tr.FrequencyHz() != 437.1e6 || tr.Tunes() != 1 {
		t.Fatalf("freq=%v tunes=%d", tr.FrequencyHz(), tr.Tunes())
	}
}

func TestTuneOutOfBand(t *testing.T) {
	tr := NewTransceiver(openPort(t), UHFAmateur)
	if err := tr.BeginTune(100e6); !errors.Is(err, ErrOutOfBand) {
		t.Fatalf("out-of-band tune = %v", err)
	}
}

func TestTuneRequiresOpenPort(t *testing.T) {
	p := NewSerialPort()
	tr := NewTransceiver(p, UHFAmateur)
	if err := tr.BeginTune(437.1e6); !errors.Is(err, ErrPortNotOpen) {
		t.Fatalf("tune on closed port = %v", err)
	}
}

func TestLockedDropsWhenPortCloses(t *testing.T) {
	p := openPort(t)
	tr := NewTransceiver(p, UHFAmateur)
	_ = tr.BeginTune(437.1e6)
	tr.FinishTune()
	p.Close()
	if tr.Locked() {
		t.Fatal("locked with closed port")
	}
}

func TestBandContains(t *testing.T) {
	if !UHFAmateur.Contains(437.1e6) {
		t.Fatal("437.1 MHz should be in UHF amateur band")
	}
	if UHFAmateur.Contains(500e6) {
		t.Fatal("500 MHz should be out of band")
	}
}

func TestPortStateString(t *testing.T) {
	if PortOpen.String() != "open" || PortNegotiating.String() != "negotiating" {
		t.Fatal("state names wrong")
	}
	if PortState(42).String() == "" {
		t.Fatal("unknown state empty")
	}
}

// Package radio models the COTS radio hardware behind fedrcom/pbcom/fedr:
// an emulated serial port whose parameter negotiation dominates startup
// time (the reason pbcom takes ~20 s to restart), and a tunable
// transceiver driven by high-level commands.
//
// Like the antenna model, these are pure state machines: components own
// the timing by scheduling the transition callbacks on their own clocks.
package radio

import (
	"errors"
	"fmt"
)

// Serial port states.
type PortState int

// Port states.
const (
	PortClosed PortState = iota + 1
	PortNegotiating
	PortOpen
)

var portStateNames = map[PortState]string{
	PortClosed:      "closed",
	PortNegotiating: "negotiating",
	PortOpen:        "open",
}

// String names the state.
func (s PortState) String() string {
	if n, ok := portStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("portstate(%d)", int(s))
}

// Port errors.
var (
	ErrPortNotOpen    = errors.New("radio: serial port not open")
	ErrPortBusy       = errors.New("radio: serial port already negotiating or open")
	ErrOutOfBand      = errors.New("radio: frequency outside radio band")
	ErrNotNegotiating = errors.New("radio: no negotiation in progress")
)

// SerialPort emulates the ground station's radio serial link. Opening it
// requires a parameter negotiation with the radio hardware — the dominant
// cost of a pbcom/fedrcom restart; the caller schedules FinishNegotiation
// when its startup time has passed.
type SerialPort struct {
	state PortState
	// writes counts frames written since open, for health beacons.
	writes int
}

// NewSerialPort returns a closed port.
func NewSerialPort() *SerialPort {
	return &SerialPort{state: PortClosed}
}

// State reports the port state.
func (p *SerialPort) State() PortState { return p.state }

// BeginOpen starts the negotiation. The caller must invoke
// FinishNegotiation once the negotiation is done.
func (p *SerialPort) BeginOpen() error {
	if p.state == PortNegotiating || p.state == PortOpen {
		return ErrPortBusy
	}
	p.state = PortNegotiating
	return nil
}

// FinishNegotiation completes the handshake.
func (p *SerialPort) FinishNegotiation() error {
	if p.state != PortNegotiating {
		return ErrNotNegotiating
	}
	p.state = PortOpen
	return nil
}

// Write sends a frame to the radio.
func (p *SerialPort) Write(frame []byte) error {
	if p.state != PortOpen {
		return ErrPortNotOpen
	}
	p.writes++
	return nil
}

// Writes reports frames written since the port opened.
func (p *SerialPort) Writes() int { return p.writes }

// Close returns the port to the closed state (kills any negotiation).
func (p *SerialPort) Close() {
	p.state = PortClosed
	p.writes = 0
}

// Band is a radio tuning range.
type Band struct {
	LoHz, HiHz float64
}

// Contains reports whether f lies in the band.
func (b Band) Contains(f float64) bool { return f >= b.LoHz && f <= b.HiHz }

// UHFAmateur is the band Mercury's 437 MHz downlinks live in.
var UHFAmateur = Band{LoHz: 420e6, HiHz: 450e6}

// Transceiver is the tunable radio.
type Transceiver struct {
	// Band constrains tuning.
	Band Band

	port    *SerialPort
	freqHz  float64
	settled bool
	tunes   int
}

// NewTransceiver builds a radio attached to the port.
func NewTransceiver(port *SerialPort, band Band) *Transceiver {
	return &Transceiver{Band: band, port: port}
}

// BeginTune starts a retune to freqHz; the caller schedules FinishTune
// once the synthesizer has settled. Tuning requires the serial link to be
// open.
func (t *Transceiver) BeginTune(freqHz float64) error {
	if !t.Band.Contains(freqHz) {
		return fmt.Errorf("%w: %.3f MHz", ErrOutOfBand, freqHz/1e6)
	}
	if err := t.port.Write([]byte("FREQ")); err != nil {
		return err
	}
	t.freqHz = freqHz
	t.settled = false
	t.tunes++
	return nil
}

// FinishTune marks the synthesizer settled.
func (t *Transceiver) FinishTune() { t.settled = true }

// FrequencyHz returns the commanded frequency.
func (t *Transceiver) FrequencyHz() float64 { return t.freqHz }

// Settled reports whether the last tune completed.
func (t *Transceiver) Settled() bool { return t.settled }

// Tunes reports how many retunes were commanded (Doppler tracking issues
// many per pass).
func (t *Transceiver) Tunes() int { return t.tunes }

// Locked reports whether the radio is usable for the link: port open,
// synthesizer settled, frequency within band.
func (t *Transceiver) Locked() bool {
	return t.port.State() == PortOpen && t.settled && t.Band.Contains(t.freqHz)
}

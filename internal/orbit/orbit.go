// Package orbit implements the satellite-estimation substrate behind the
// ses component: Keplerian two-body propagation, Earth-fixed coordinate
// transforms, topocentric look angles for a ground station, Doppler shift,
// and AOS/LOS pass prediction.
//
// The paper's ses "calculates satellite position, radio frequencies, and
// antenna pointing angles" for low-earth-orbit satellites such as Opal and
// Sapphire. This package is the math that workload runs on. Two-body
// propagation (no J2/drag) is accurate enough for the simulated pass
// workload the experiments need.
package orbit

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Physical constants (km, s, rad).
const (
	// MuEarth is Earth's gravitational parameter, km^3/s^2.
	MuEarth = 398600.4418
	// EarthRadius is the mean equatorial radius, km.
	EarthRadius = 6378.137
	// EarthRotationRate is rad/s (sidereal).
	EarthRotationRate = 7.2921158553e-5
	// SpeedOfLight in km/s.
	SpeedOfLight = 299792.458
)

// Vec3 is a 3-vector in km (or km/s for velocities).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Elements is a classical Keplerian element set.
type Elements struct {
	// SemiMajorKm is the semi-major axis a, km.
	SemiMajorKm float64
	// Eccentricity e in [0, 1).
	Eccentricity float64
	// InclinationRad, RAANRad, ArgPerigeeRad are the orientation angles.
	InclinationRad float64
	RAANRad        float64
	ArgPerigeeRad  float64
	// MeanAnomalyRad is the mean anomaly at Epoch.
	MeanAnomalyRad float64
	// Epoch anchors the element set in time.
	Epoch time.Time
}

// Validation errors.
var (
	ErrBadSemiMajor    = errors.New("orbit: semi-major axis must exceed Earth's radius")
	ErrBadEccentricity = errors.New("orbit: eccentricity must be in [0, 1)")
	ErrNoConvergence   = errors.New("orbit: Kepler solver did not converge")
)

// Validate checks the element set describes a bound, non-impacting orbit.
func (el Elements) Validate() error {
	if el.Eccentricity < 0 || el.Eccentricity >= 1 {
		return fmt.Errorf("%w: e=%v", ErrBadEccentricity, el.Eccentricity)
	}
	if el.SemiMajorKm*(1-el.Eccentricity) <= EarthRadius {
		return fmt.Errorf("%w: perigee %.1f km", ErrBadSemiMajor,
			el.SemiMajorKm*(1-el.Eccentricity))
	}
	return nil
}

// MeanMotion returns n in rad/s.
func (el Elements) MeanMotion() float64 {
	return math.Sqrt(MuEarth / (el.SemiMajorKm * el.SemiMajorKm * el.SemiMajorKm))
}

// Period returns the orbital period.
func (el Elements) Period() time.Duration {
	return time.Duration(2 * math.Pi / el.MeanMotion() * float64(time.Second))
}

// SolveKepler solves E - e*sin(E) = M for the eccentric anomaly E using
// Newton iteration. M may be any real; the result is normalised near M.
func SolveKepler(meanAnomaly, e float64) (float64, error) {
	if e < 0 || e >= 1 {
		return 0, ErrBadEccentricity
	}
	// Normalise M into [0, 2pi); the solution for the reduced anomaly is
	// shifted back by the same whole turns at the end.
	reduced := math.Mod(meanAnomaly, 2*math.Pi)
	if reduced < 0 {
		reduced += 2 * math.Pi
	}
	shift := meanAnomaly - reduced

	// f(E) = E - e sin E - M is strictly increasing for e < 1, so the root
	// is bracketed by [M-e, M+e]. Newton with a bisection safeguard
	// converges for all eccentricities.
	lo, hi := reduced-e, reduced+e
	eAnom := reduced
	if e > 0.8 {
		eAnom = math.Pi
	}
	for i := 0; i < 100; i++ {
		f := eAnom - e*math.Sin(eAnom) - reduced
		if math.Abs(f) < 1e-13 {
			return eAnom + shift, nil
		}
		if f > 0 {
			hi = eAnom
		} else {
			lo = eAnom
		}
		fp := 1 - e*math.Cos(eAnom)
		next := eAnom - f/fp
		if next <= lo || next >= hi {
			next = (lo + hi) / 2 // Newton left the bracket; bisect instead
		}
		if math.Abs(next-eAnom) < 1e-14 {
			return next + shift, nil
		}
		eAnom = next
	}
	return 0, ErrNoConvergence
}

// StateECI returns the inertial (ECI) position and velocity at time t.
func (el Elements) StateECI(t time.Time) (pos, vel Vec3, err error) {
	if err := el.Validate(); err != nil {
		return Vec3{}, Vec3{}, err
	}
	n := el.MeanMotion()
	dt := t.Sub(el.Epoch).Seconds()
	meanAnom := math.Mod(el.MeanAnomalyRad+n*dt, 2*math.Pi)
	eAnom, err := SolveKepler(meanAnom, el.Eccentricity)
	if err != nil {
		return Vec3{}, Vec3{}, err
	}
	e := el.Eccentricity
	a := el.SemiMajorKm
	cosE, sinE := math.Cos(eAnom), math.Sin(eAnom)
	// Perifocal coordinates.
	r := a * (1 - e*cosE)
	xp := a * (cosE - e)
	yp := a * math.Sqrt(1-e*e) * sinE
	// Perifocal velocity.
	factor := math.Sqrt(MuEarth*a) / r
	vxp := -factor * sinE
	vyp := factor * math.Sqrt(1-e*e) * cosE

	rot := newPerifocal(el)
	return rot.toECI(xp, yp), rot.toECI(vxp, vyp), nil
}

// perifocal is the 3-1-3 rotation (RAAN, inclination, argument of perigee)
// taking the orbital plane into the inertial frame. It depends on the
// element set only, not on time.
type perifocal struct {
	r11, r12, r21, r22, r31, r32 float64
}

func newPerifocal(el Elements) perifocal {
	cO, sO := math.Cos(el.RAANRad), math.Sin(el.RAANRad)
	ci, si := math.Cos(el.InclinationRad), math.Sin(el.InclinationRad)
	cw, sw := math.Cos(el.ArgPerigeeRad), math.Sin(el.ArgPerigeeRad)
	return perifocal{
		r11: cO*cw - sO*sw*ci,
		r12: -cO*sw - sO*cw*ci,
		r21: sO*cw + cO*sw*ci,
		r22: -sO*sw + cO*cw*ci,
		r31: sw * si,
		r32: cw * si,
	}
}

// toECI rotates the in-plane vector (x, y, 0).
func (r perifocal) toECI(x, y float64) Vec3 {
	return Vec3{
		X: r.r11*x + r.r12*y,
		Y: r.r21*x + r.r22*y,
		Z: r.r31*x + r.r32*y,
	}
}

// j2000 is the J2000 epoch GMST counts days from.
var j2000 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

// GMST returns the Greenwich mean sidereal time angle (radians) at t,
// using the standard linear approximation from the J2000 epoch.
func GMST(t time.Time) float64 {
	days := t.Sub(j2000).Seconds() / 86400
	deg := 280.46061837 + 360.98564736629*days
	rad := deg * math.Pi / 180
	rad = math.Mod(rad, 2*math.Pi)
	if rad < 0 {
		rad += 2 * math.Pi
	}
	return rad
}

// ECIToECEF rotates an inertial vector into the Earth-fixed frame at t.
func ECIToECEF(p Vec3, t time.Time) Vec3 {
	theta := GMST(t)
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{
		X: c*p.X + s*p.Y,
		Y: -s*p.X + c*p.Y,
		Z: p.Z,
	}
}

// Station is a ground-station location.
type Station struct {
	// LatitudeRad, LongitudeRad are geodetic (spherical-Earth model).
	LatitudeRad  float64
	LongitudeRad float64
	// AltitudeKm above the reference sphere.
	AltitudeKm float64
}

// ECEF returns the station position in the Earth-fixed frame.
func (s Station) ECEF() Vec3 {
	r := EarthRadius + s.AltitudeKm
	clat, slat := math.Cos(s.LatitudeRad), math.Sin(s.LatitudeRad)
	clon, slon := math.Cos(s.LongitudeRad), math.Sin(s.LongitudeRad)
	return Vec3{
		X: r * clat * clon,
		Y: r * clat * slon,
		Z: r * slat,
	}
}

// Look is a topocentric observation of the satellite from the station.
type Look struct {
	// AzimuthRad clockwise from north, [0, 2pi).
	AzimuthRad float64
	// ElevationRad above the horizon, [-pi/2, pi/2].
	ElevationRad float64
	// RangeKm is the slant range.
	RangeKm float64
	// RangeRateKmS is d(range)/dt; negative while approaching.
	RangeRateKmS float64
}

// AzimuthDeg returns azimuth in degrees.
func (l Look) AzimuthDeg() float64 { return l.AzimuthRad * 180 / math.Pi }

// ElevationDeg returns elevation in degrees.
func (l Look) ElevationDeg() float64 { return l.ElevationRad * 180 / math.Pi }

// DopplerHz returns the received-frequency offset for a carrier at freqHz.
func (l Look) DopplerHz(freqHz float64) float64 {
	return -l.RangeRateKmS / SpeedOfLight * freqHz
}

// LookAt computes the look angles from the station to the satellite at t.
// Callers that look repeatedly should build the Observer once.
func LookAt(el Elements, st Station, t time.Time) (Look, error) {
	return NewObserver(el, st).LookAt(t)
}

// Observer is everything about looking at one satellite from one station
// that does not depend on the instant: the validated element set, its mean
// motion and orbital-plane rotation, the station's Earth-fixed position and
// the sines and cosines of its latitude and longitude. The ses estimator
// looks three instants a second for the whole life of a station, so it
// builds this once; every expression keeps the shape the per-call code had,
// so the angles are bit-identical.
type Observer struct {
	el  Elements
	err error // el.Validate(), returned by every look

	meanMotion float64
	semiMinor  float64 // a·sqrt(1-e²)
	rot        perifocal

	sta                    Vec3 // station, Earth-fixed
	clat, slat, clon, slon float64
}

// NewObserver precomputes the time-independent geometry.
func NewObserver(el Elements, st Station) *Observer {
	e, a := el.Eccentricity, el.SemiMajorKm
	return &Observer{
		el:         el,
		err:        el.Validate(),
		meanMotion: el.MeanMotion(),
		semiMinor:  a * math.Sqrt(1-e*e),
		rot:        newPerifocal(el),
		sta:        st.ECEF(),
		clat:       math.Cos(st.LatitudeRad),
		slat:       math.Sin(st.LatitudeRad),
		clon:       math.Cos(st.LongitudeRad),
		slon:       math.Sin(st.LongitudeRad),
	}
}

// LookAt computes the look angles at t.
func (o *Observer) LookAt(t time.Time) (Look, error) {
	look, err := o.lookInstant(t)
	if err != nil {
		return Look{}, err
	}
	// Range rate by symmetric numerical differentiation.
	const h = 500 * time.Millisecond
	before, err := o.lookInstant(t.Add(-h))
	if err != nil {
		return Look{}, err
	}
	after, err := o.lookInstant(t.Add(h))
	if err != nil {
		return Look{}, err
	}
	look.RangeRateKmS = (after.RangeKm - before.RangeKm) / (2 * h.Seconds())
	return look, nil
}

// lookInstant is azimuth, elevation and range at t (no range rate).
func (o *Observer) lookInstant(t time.Time) (Look, error) {
	if o.err != nil {
		return Look{}, o.err
	}
	// Inertial position: the first half of Elements.StateECI.
	dt := t.Sub(o.el.Epoch).Seconds()
	meanAnom := math.Mod(o.el.MeanAnomalyRad+o.meanMotion*dt, 2*math.Pi)
	eAnom, err := SolveKepler(meanAnom, o.el.Eccentricity)
	if err != nil {
		return Look{}, err
	}
	cosE, sinE := math.Cos(eAnom), math.Sin(eAnom)
	xp := o.el.SemiMajorKm * (cosE - o.el.Eccentricity)
	yp := o.semiMinor * sinE
	rho := ECIToECEF(o.rot.toECI(xp, yp), t).Sub(o.sta)

	// Rotate the range vector into the local ENU (east-north-up) frame.
	east := -o.slon*rho.X + o.clon*rho.Y
	north := -o.slat*o.clon*rho.X - o.slat*o.slon*rho.Y + o.clat*rho.Z
	up := o.clat*o.clon*rho.X + o.clat*o.slon*rho.Y + o.slat*rho.Z

	rng := rho.Norm()
	az := wrapAzimuth(math.Atan2(east, north))
	elv := math.Asin(up / rng)
	return Look{AzimuthRad: az, ElevationRad: elv, RangeKm: rng}, nil
}

// wrapAzimuth maps an atan2 angle onto [0, 2π): a negative angle too
// small to survive adding 2π would round up to 2π, which is north.
func wrapAzimuth(az float64) float64 {
	if az < 0 {
		return math.Mod(az+2*math.Pi, 2*math.Pi)
	}
	return az
}

// Pass is one visibility window of the satellite over the station.
type Pass struct {
	AOS   time.Time // acquisition of signal (elevation crosses MinElevation upward)
	LOS   time.Time // loss of signal
	MaxEl float64   // maximum elevation, radians
	MaxAt time.Time // time of maximum elevation
}

// Duration returns LOS - AOS.
func (p Pass) Duration() time.Duration { return p.LOS.Sub(p.AOS) }

// PredictPasses scans [from, from+window] for passes where elevation
// exceeds minElevationRad, refining AOS/LOS by bisection to within one
// second. The scan step bounds the shortest detectable pass at ~30 s,
// adequate for LEO.
func PredictPasses(el Elements, st Station, from time.Time, window time.Duration, minElevationRad float64) ([]Pass, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	const step = 30 * time.Second
	o := NewObserver(el, st)
	above := func(t time.Time) (bool, error) {
		l, err := o.lookInstant(t)
		if err != nil {
			return false, err
		}
		return l.ElevationRad > minElevationRad, nil
	}

	var passes []Pass
	end := from.Add(window)
	prev, err := above(from)
	if err != nil {
		return nil, err
	}
	var aos time.Time
	inPass := prev
	if inPass {
		aos = from
	}
	for t := from.Add(step); !t.After(end); t = t.Add(step) {
		cur, err := above(t)
		if err != nil {
			return nil, err
		}
		switch {
		case cur && !inPass:
			at, err := bisect(o, t.Add(-step), t, minElevationRad, true)
			if err != nil {
				return nil, err
			}
			aos = at
			inPass = true
		case !cur && inPass:
			los, err := bisect(o, t.Add(-step), t, minElevationRad, false)
			if err != nil {
				return nil, err
			}
			p, err := finishPass(o, aos, los)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
			inPass = false
		}
	}
	if inPass {
		p, err := finishPass(o, aos, end)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// bisect finds the elevation threshold crossing inside (lo, hi]. rising
// selects the upward crossing.
func bisect(o *Observer, lo, hi time.Time, threshold float64, rising bool) (time.Time, error) {
	for hi.Sub(lo) > time.Second {
		mid := lo.Add(hi.Sub(lo) / 2)
		l, err := o.lookInstant(mid)
		if err != nil {
			return time.Time{}, err
		}
		above := l.ElevationRad > threshold
		if above == rising {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// finishPass samples the window for the maximum elevation.
func finishPass(o *Observer, aos, los time.Time) (Pass, error) {
	p := Pass{AOS: aos, LOS: los, MaxAt: aos}
	n := int(los.Sub(aos)/(5*time.Second)) + 1
	for i := 0; i <= n; i++ {
		t := aos.Add(time.Duration(i) * los.Sub(aos) / time.Duration(n+1))
		l, err := o.lookInstant(t)
		if err != nil {
			return Pass{}, err
		}
		if l.ElevationRad > p.MaxEl {
			p.MaxEl = l.ElevationRad
			p.MaxAt = t
		}
	}
	return p, nil
}

// SSOElements returns a Sapphire/Opal-like sun-synchronous LEO element set
// anchored at epoch: ~800 km circular at 98.6° inclination. Experiments
// and examples use this as the default workload satellite.
func SSOElements(epoch time.Time) Elements {
	return Elements{
		SemiMajorKm:    EarthRadius + 795,
		Eccentricity:   0.0012,
		InclinationRad: 98.6 * math.Pi / 180,
		RAANRad:        1.2,
		ArgPerigeeRad:  0.4,
		MeanAnomalyRad: 0.0,
		Epoch:          epoch,
	}
}

// StanfordStation returns the Mercury ground station's approximate
// location (Stanford, CA).
func StanfordStation() Station {
	return Station{
		LatitudeRad:  37.4275 * math.Pi / 180,
		LongitudeRad: -122.1697 * math.Pi / 180,
		AltitudeKm:   0.03,
	}
}

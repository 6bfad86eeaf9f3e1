package orbit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)

func TestSolveKeplerResidual(t *testing.T) {
	for _, e := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99} {
		for m := -6.0; m < 6.0; m += 0.37 {
			eAnom, err := SolveKepler(m, e)
			if err != nil {
				t.Fatalf("SolveKepler(M=%v, e=%v): %v", m, e, err)
			}
			if res := eAnom - e*math.Sin(eAnom) - m; math.Abs(res) > 1e-9 {
				t.Fatalf("residual %v for M=%v e=%v", res, m, e)
			}
		}
	}
}

func TestSolveKeplerRejectsBadEccentricity(t *testing.T) {
	if _, err := SolveKepler(1, 1.0); err == nil {
		t.Fatal("e=1 accepted")
	}
	if _, err := SolveKepler(1, -0.1); err == nil {
		t.Fatal("e<0 accepted")
	}
}

func TestCircularOrbitRadiusConstant(t *testing.T) {
	el := Elements{
		SemiMajorKm:    EarthRadius + 700,
		Eccentricity:   0,
		InclinationRad: 0.9,
		Epoch:          epoch,
	}
	for i := 0; i < 20; i++ {
		pos, _, err := el.StateECI(epoch.Add(time.Duration(i) * 7 * time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if r := pos.Norm(); math.Abs(r-el.SemiMajorKm) > 1e-6 {
			t.Fatalf("circular orbit radius %v, want %v", r, el.SemiMajorKm)
		}
	}
}

func TestVisVivaEnergyConserved(t *testing.T) {
	el := Elements{
		SemiMajorKm:    EarthRadius + 800,
		Eccentricity:   0.1,
		InclinationRad: 1.1,
		RAANRad:        0.5,
		ArgPerigeeRad:  0.3,
		Epoch:          epoch,
	}
	// Specific orbital energy must equal -mu/2a everywhere.
	want := -MuEarth / (2 * el.SemiMajorKm)
	for i := 0; i < 30; i++ {
		at := epoch.Add(time.Duration(i) * 3 * time.Minute)
		pos, vel, err := el.StateECI(at)
		if err != nil {
			t.Fatal(err)
		}
		got := vel.Dot(vel)/2 - MuEarth/pos.Norm()
		if math.Abs(got-want)/math.Abs(want) > 1e-9 {
			t.Fatalf("energy %v, want %v at %v", got, want, at)
		}
	}
}

func TestPeriodMatchesReturnToStart(t *testing.T) {
	el := SSOElements(epoch)
	p0, _, err := el.StateECI(epoch)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := el.StateECI(epoch.Add(el.Period()))
	if err != nil {
		t.Fatal(err)
	}
	if d := p1.Sub(p0).Norm(); d > 1.0 {
		t.Fatalf("position after one period differs by %v km", d)
	}
}

func TestValidate(t *testing.T) {
	bad := Elements{SemiMajorKm: 100, Epoch: epoch}
	if err := bad.Validate(); err == nil {
		t.Fatal("sub-surface orbit accepted")
	}
	bad = Elements{SemiMajorKm: EarthRadius + 700, Eccentricity: 1.2, Epoch: epoch}
	if err := bad.Validate(); err == nil {
		t.Fatal("hyperbolic orbit accepted")
	}
	if _, _, err := bad.StateECI(epoch); err == nil {
		t.Fatal("StateECI accepted bad elements")
	}
}

func TestGMSTAdvancesOneRotationPerSiderealDay(t *testing.T) {
	t0 := epoch
	sidereal := time.Duration(86164.0905 * float64(time.Second))
	g0 := GMST(t0)
	g1 := GMST(t0.Add(sidereal))
	diff := math.Mod(g1-g0+4*math.Pi, 2*math.Pi)
	if diff > 1e-3 && diff < 2*math.Pi-1e-3 {
		t.Fatalf("GMST advanced %v rad over a sidereal day", diff)
	}
}

func TestLookAtGeostationaryIsFixed(t *testing.T) {
	// A geostationary satellite over the station's longitude should sit at
	// a nearly constant look angle.
	st := StanfordStation()
	el := Elements{
		SemiMajorKm:    42164,
		Eccentricity:   0,
		InclinationRad: 0,
		RAANRad:        0,
		ArgPerigeeRad:  0,
		// Choose the mean anomaly so the satellite sits near the station's
		// meridian at epoch: ECI angle = GMST + longitude.
		MeanAnomalyRad: math.Mod(GMST(epoch)+st.LongitudeRad+2*math.Pi, 2*math.Pi),
		Epoch:          epoch,
	}
	l0, err := LookAt(el, st, epoch)
	if err != nil {
		t.Fatal(err)
	}
	l6, err := LookAt(el, st, epoch.Add(6*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l0.ElevationDeg()-l6.ElevationDeg()) > 1.0 {
		t.Fatalf("GEO elevation drifted: %v vs %v deg", l0.ElevationDeg(), l6.ElevationDeg())
	}
	if math.Abs(l0.AzimuthDeg()-180) > 10 {
		t.Fatalf("GEO over own meridian should be ~south: az %v deg", l0.AzimuthDeg())
	}
	if math.Abs(l0.RangeRateKmS) > 0.05 {
		t.Fatalf("GEO range rate %v km/s, want ~0", l0.RangeRateKmS)
	}
}

func TestLEOPassesExist(t *testing.T) {
	el := SSOElements(epoch)
	st := StanfordStation()
	passes, err := PredictPasses(el, st, epoch, 48*time.Hour, 5*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 2 {
		t.Fatalf("expected several passes over 48h, got %d", len(passes))
	}
	for _, p := range passes {
		if !p.LOS.After(p.AOS) {
			t.Fatalf("pass with LOS <= AOS: %+v", p)
		}
		// Grazing passes can be under a minute; anything longer than ~25
		// minutes is impossible for LEO.
		if d := p.Duration(); d < 10*time.Second || d > 25*time.Minute {
			t.Fatalf("implausible LEO pass duration %v", d)
		}
		if p.MaxEl <= 5*math.Pi/180 {
			t.Fatalf("max elevation %v below threshold", p.MaxEl)
		}
		if p.MaxAt.Before(p.AOS) || p.MaxAt.After(p.LOS) {
			t.Fatalf("max-elevation time outside pass: %+v", p)
		}
		// Elevation at AOS/LOS should be near the threshold.
		for _, at := range []time.Time{p.AOS, p.LOS} {
			l, err := LookAt(el, st, at)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(l.ElevationDeg()-5) > 0.5 {
				t.Fatalf("boundary elevation %v deg, want ~5", l.ElevationDeg())
			}
		}
	}
}

func TestPassesDoNotOverlap(t *testing.T) {
	el := SSOElements(epoch)
	st := StanfordStation()
	passes, err := PredictPasses(el, st, epoch, 48*time.Hour, 5*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(passes); i++ {
		if passes[i].AOS.Before(passes[i-1].LOS) {
			t.Fatalf("passes %d and %d overlap", i-1, i)
		}
	}
}

func TestDopplerSignFlipsThroughPass(t *testing.T) {
	el := SSOElements(epoch)
	st := StanfordStation()
	passes, err := PredictPasses(el, st, epoch, 24*time.Hour, 10*math.Pi/180)
	if err != nil || len(passes) == 0 {
		t.Fatalf("no passes: %v", err)
	}
	p := passes[0]
	const carrier = 437.1e6 // Sapphire's ~437 MHz downlink
	early, err := LookAt(el, st, p.AOS.Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	late, err := LookAt(el, st, p.LOS.Add(-20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if early.DopplerHz(carrier) <= 0 {
		t.Fatalf("approaching Doppler should be positive, got %v", early.DopplerHz(carrier))
	}
	if late.DopplerHz(carrier) >= 0 {
		t.Fatalf("receding Doppler should be negative, got %v", late.DopplerHz(carrier))
	}
	// LEO at 437 MHz: |Doppler| is within ~12 kHz.
	if math.Abs(early.DopplerHz(carrier)) > 12000 {
		t.Fatalf("Doppler implausibly large: %v Hz", early.DopplerHz(carrier))
	}
}

func TestStationECEF(t *testing.T) {
	st := Station{LatitudeRad: 0, LongitudeRad: 0, AltitudeKm: 0}
	p := st.ECEF()
	if math.Abs(p.X-EarthRadius) > 1e-9 || math.Abs(p.Y) > 1e-9 || math.Abs(p.Z) > 1e-9 {
		t.Fatalf("equator/prime-meridian ECEF = %+v", p)
	}
	north := Station{LatitudeRad: math.Pi / 2}
	if p := north.ECEF(); math.Abs(p.Z-EarthRadius) > 1e-6 {
		t.Fatalf("north pole ECEF = %+v", p)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add wrong")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale wrong")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot wrong")
	}
	if math.Abs((Vec3{3, 4, 0}).Norm()-5) > 1e-12 {
		t.Fatal("Norm wrong")
	}
}

// Property: orbital radius always stays within [a(1-e), a(1+e)].
func TestPropertyRadiusBounds(t *testing.T) {
	f := func(eRaw, mRaw uint16) bool {
		e := float64(eRaw) / 65536 * 0.8 // e in [0, 0.8)
		a := EarthRadius + 2000 + float64(mRaw%5000)
		el := Elements{
			SemiMajorKm:    a / (1 - e), // keep perigee above surface
			Eccentricity:   e,
			InclinationRad: 1.0,
			Epoch:          epoch,
		}
		if el.Validate() != nil {
			return true
		}
		for i := 0; i < 8; i++ {
			pos, _, err := el.StateECI(epoch.Add(time.Duration(i) * 13 * time.Minute))
			if err != nil {
				return false
			}
			r := pos.Norm()
			lo := el.SemiMajorKm * (1 - e)
			hi := el.SemiMajorKm * (1 + e)
			if r < lo-1e-6 || r > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: elevation never exceeds +90 degrees and azimuth stays in
// [0, 360).
func TestPropertyLookAngleRanges(t *testing.T) {
	el := SSOElements(epoch)
	st := StanfordStation()
	f := func(minutes uint16) bool {
		l, err := LookAt(el, st, epoch.Add(time.Duration(minutes)*time.Minute))
		if err != nil {
			return false
		}
		return l.AzimuthRad >= 0 && l.AzimuthRad < 2*math.Pi &&
			l.ElevationRad >= -math.Pi/2-1e-9 && l.ElevationRad <= math.Pi/2+1e-9 &&
			l.RangeKm > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refLookAt is the per-call LookAt the Observer replaced, kept verbatim as
// the reference: every look recomputed the station's sines and cosines, its
// ECEF position, the mean motion and the orbital-plane rotation.
func refLookAt(el Elements, st Station, t time.Time) (Look, error) {
	instant := func(t time.Time) (Look, error) {
		posECI, _, err := refStateECI(el, t)
		if err != nil {
			return Look{}, err
		}
		satECEF := ECIToECEF(posECI, t)
		staECEF := st.ECEF()
		rho := satECEF.Sub(staECEF)
		clat, slat := math.Cos(st.LatitudeRad), math.Sin(st.LatitudeRad)
		clon, slon := math.Cos(st.LongitudeRad), math.Sin(st.LongitudeRad)
		east := -slon*rho.X + clon*rho.Y
		north := -slat*clon*rho.X - slat*slon*rho.Y + clat*rho.Z
		up := clat*clon*rho.X + clat*slon*rho.Y + slat*rho.Z
		rng := rho.Norm()
		az := math.Atan2(east, north)
		if az < 0 {
			az += 2 * math.Pi
		}
		return Look{AzimuthRad: az, ElevationRad: math.Asin(up / rng), RangeKm: rng}, nil
	}
	look, err := instant(t)
	if err != nil {
		return Look{}, err
	}
	const h = 500 * time.Millisecond
	before, err := instant(t.Add(-h))
	if err != nil {
		return Look{}, err
	}
	after, err := instant(t.Add(h))
	if err != nil {
		return Look{}, err
	}
	look.RangeRateKmS = (after.RangeKm - before.RangeKm) / (2 * h.Seconds())
	return look, nil
}

func refStateECI(el Elements, t time.Time) (pos, vel Vec3, err error) {
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
	r := a * (1 - e*cosE)
	xp := a * (cosE - e)
	yp := a * math.Sqrt(1-e*e) * sinE
	factor := math.Sqrt(MuEarth*a) / r
	vxp := -factor * sinE
	vyp := factor * math.Sqrt(1-e*e) * cosE
	rot := func(p Vec3) Vec3 {
		cO, sO := math.Cos(el.RAANRad), math.Sin(el.RAANRad)
		ci, si := math.Cos(el.InclinationRad), math.Sin(el.InclinationRad)
		cw, sw := math.Cos(el.ArgPerigeeRad), math.Sin(el.ArgPerigeeRad)
		r11 := cO*cw - sO*sw*ci
		r12 := -cO*sw - sO*cw*ci
		r21 := sO*cw + cO*sw*ci
		r22 := -sO*sw + cO*cw*ci
		r31 := sw * si
		r32 := cw * si
		return Vec3{X: r11*p.X + r12*p.Y, Y: r21*p.X + r22*p.Y, Z: r31*p.X + r32*p.Y}
	}
	return rot(Vec3{xp, yp, 0}), rot(Vec3{vxp, vyp, 0}), nil
}

// TestObserverBitIdenticalToPerCallLookAt: hoisting the fixed geometry out
// of the per-look path must not move a single bit — the simulated station's
// pointing commands, and with them every seeded golden, are formatted from
// these floats. 10 000 seeded instants over a month, two element sets
// (near-circular SSO and an eccentric orbit), compared with ==.
func TestObserverBitIdenticalToPerCallLookAt(t *testing.T) {
	eccentric := SSOElements(epoch)
	eccentric.SemiMajorKm, eccentric.Eccentricity, eccentric.MeanAnomalyRad = 12000, 0.35, 2.1
	st := StanfordStation()
	rng := rand.New(rand.NewSource(2002))
	for _, el := range []Elements{SSOElements(epoch), eccentric} {
		o := NewObserver(el, st)
		for i := 0; i < 5000; i++ {
			at := epoch.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
			want, err := refLookAt(el, st, at)
			if err != nil {
				t.Fatal(err)
			}
			got, err := o.LookAt(at)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("instant %v: Observer %+v, per-call %+v", at, got, want)
			}
			if pkg, _ := LookAt(el, st, at); pkg != want {
				t.Fatalf("instant %v: LookAt %+v, per-call %+v", at, pkg, want)
			}
			pos, vel, err := el.StateECI(at)
			if rp, rv, _ := refStateECI(el, at); err != nil || pos != rp || vel != rv {
				t.Fatalf("instant %v: StateECI moved: %v %v, reference %v %v (%v)", at, pos, vel, rp, rv, err)
			}
		}
	}
}

// TestObserverReportsBadElements: the element set is validated once, and
// every look reports it.
func TestObserverReportsBadElements(t *testing.T) {
	bad := SSOElements(time.Now())
	bad.Eccentricity = 1.5
	o := NewObserver(bad, StanfordStation())
	if _, err := o.LookAt(time.Now()); !errors.Is(err, ErrBadEccentricity) {
		t.Fatalf("err = %v, want ErrBadEccentricity", err)
	}
}

// BenchmarkOrbitLookAt measures the ses workload's inner loop.
func BenchmarkOrbitLookAt(b *testing.B) {
	el := SSOElements(epoch)
	st := StanfordStation()
	for i := 0; i < b.N; i++ {
		if _, err := LookAt(el, st, epoch.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPassPrediction measures AOS/LOS scanning over a day.
func BenchmarkPassPrediction(b *testing.B) {
	el := SSOElements(epoch)
	st := StanfordStation()
	for i := 0; i < b.N; i++ {
		if _, err := PredictPasses(el, st, epoch, 24*time.Hour, 0.087); err != nil {
			b.Fatal(err)
		}
	}
}

// Azimuths stay in [0, 2π): str refuses a pointing outside it, and a
// negative atan2 result too small to survive the wrap is north.
func TestWrapAzimuthHalfOpen(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0},
		{-1e-17, 0},
		{-math.Pi, math.Pi},
		{math.Pi, math.Pi},
		{-1, 2*math.Pi - 1},
	} {
		if got := wrapAzimuth(c.in); got != c.want || got >= 2*math.Pi {
			t.Errorf("wrapAzimuth(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

// Package fault provides failure laws, fault injection and the cure
// semantics the experiments are built on.
//
// A Fault manifests at one component (fail-silent, per the paper's failure
// model) and carries a minimal cure set: the set of components that must be
// restarted *together* for the fault to be cured. This directly encodes the
// paper's notion of a minimally n-curable failure — a restart at tree node
// n cures the fault iff the components restarted by n's button cover the
// cure set. Restarting a subset leaves the failure manifest (the component
// comes back up but stays unresponsive), which is what the failure detector
// then re-detects.
package fault

import (
	"math"
	"math/rand"
	"time"
)

// Law samples times to failure (or to any stochastic event).
type Law interface {
	// Sample draws one duration.
	Sample(rng *rand.Rand) time.Duration
}

// Exponential is the classic memoryless failure law.
type Exponential struct {
	M time.Duration
}

var _ Law = Exponential{}

// Sample draws from Exp(1/M).
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(e.M))
}

// LogNormal is a failure law with controllable coefficient of variation.
// The paper asserts its MTTF/MTTR distributions have small CVs; this law
// lets experiments reproduce that regime.
type LogNormal struct {
	M  time.Duration // mean
	CV float64       // coefficient of variation (stddev/mean)
}

var _ Law = LogNormal{}

// Sample draws from a lognormal with the configured mean and CV.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	cv := l.CV
	if cv <= 0 {
		return l.M
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(l.M.Seconds()) - sigma2/2
	x := math.Exp(mu + math.Sqrt(sigma2)*rng.NormFloat64())
	return time.Duration(x * float64(time.Second))
}

// Deterministic always returns D.
type Deterministic struct {
	D time.Duration
}

var _ Law = Deterministic{}

// Sample returns D.
func (d Deterministic) Sample(*rand.Rand) time.Duration { return d.D }

// Never is a law that effectively never fires (used to disable injection
// for a component).
type Never struct{}

var _ Law = Never{}

// aeon is far beyond any simulated horizon.
const aeon = 200 * 365 * 24 * time.Hour

// Sample returns an effectively infinite duration.
func (Never) Sample(*rand.Rand) time.Duration { return aeon }

// Weibull is an aging failure law: with Shape > 1 the hazard rate rises
// with uptime, so a component grows ever more likely to fail the longer it
// runs — the regime where software rejuvenation pays off (a restart resets
// the age clock). Shape = 1 degenerates to the exponential law.
type Weibull struct {
	// Shape is the Weibull k parameter (> 0; > 1 means aging).
	Shape float64
	// M is the distribution mean.
	M time.Duration
}

var _ Law = Weibull{}

// Sample draws scale * (-ln U)^(1/k) with the scale chosen so the mean is M.
func (w Weibull) Sample(rng *rand.Rand) time.Duration {
	k := w.Shape
	if k <= 0 {
		k = 1
	}
	scale := w.M.Seconds() / math.Gamma(1+1/k)
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	x := scale * math.Pow(-math.Log(u), 1/k)
	return time.Duration(x * float64(time.Second))
}

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

var _ Law = Uniform{}

// Sample draws uniformly from the interval.
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(rng.Int63n(int64(u.Hi-u.Lo)))
}

package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Estimator keeps the live per-site statistics the learning and cost-aware
// policies decide on — the only cure statistics in the package: failure
// inter-arrival times (MTTF), per-action success probabilities
// (Laplace-smoothed) and per-action durations (MTTR), both EWMA-damped so
// the estimates track a changing system. It is fed by the recoverer
// through Policy.ObserveFailure / ObserveAction and mirrored onto the obs
// plane as mercury_oracle_* series.
//
// Everything here is a deterministic function of the observation sequence
// and the simulated clock — no RNG, no wall time — which is the
// determinism argument for running cost-aware policies inside parallel
// campaigns (DESIGN.md §12).
type Estimator struct {
	alpha float64
	sites map[string]*siteEstimate
}

// siteEstimate aggregates one manifest site (a component or dotted sub).
type siteEstimate struct {
	failures int
	last     time.Time
	mttf     float64 // EWMA inter-arrival, seconds; 0 until two failures
	acts     map[string]*actEstimate
}

// actEstimate aggregates one (site, action) pair.
type actEstimate struct {
	tries  int
	cures  int
	dur    float64 // EWMA action duration, seconds
	hasDur bool
}

// estimatorWindow is the estimator's EWMA window N, in samples (alpha =
// 2/(N+1)).
const estimatorWindow = 8

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{
		alpha: 2.0 / (float64(estimatorWindow) + 1),
		sites: make(map[string]*siteEstimate),
	}
}

func (e *Estimator) site(name string) *siteEstimate {
	s := e.sites[name]
	if s == nil {
		s = &siteEstimate{acts: make(map[string]*actEstimate)}
		e.sites[name] = s
	}
	return s
}

func (s *siteEstimate) act(key string) *actEstimate {
	a := s.acts[key]
	if a == nil {
		a = &actEstimate{}
		s.acts[key] = a
	}
	return a
}

// ObserveFailure records a fresh failure episode at the site.
func (e *Estimator) ObserveFailure(site string, at time.Time) {
	s := e.site(site)
	if s.failures > 0 && at.After(s.last) {
		gap := at.Sub(s.last)
		sec := gap.Seconds()
		if s.mttf == 0 {
			s.mttf = sec
		} else {
			s.mttf += e.alpha * (sec - s.mttf)
		}
		M.OracleMTTFEst.Observe(gap)
	}
	s.failures++
	s.last = at
}

// ObserveAction records one recovery attempt's outcome and duration.
func (e *Estimator) ObserveAction(site string, act Action, elapsed time.Duration, cured bool) {
	a := e.site(site).act(act.key())
	a.tries++
	if cured {
		a.cures++
		M.OracleOutcomes.With("cured").Inc()
	} else {
		M.OracleOutcomes.With("persisted").Inc()
	}
	if elapsed > 0 {
		sec := elapsed.Seconds()
		if !a.hasDur {
			a.dur, a.hasDur = sec, true
		} else {
			a.dur += e.alpha * (sec - a.dur)
		}
		M.OracleActionSeconds.Observe(elapsed)
	}
}

// PSuccess returns the Laplace-smoothed cure probability of the action at
// the site: (cures+1)/(tries+2), 0.5 with no evidence.
func (e *Estimator) PSuccess(site, actKey string) float64 {
	s := e.sites[site]
	if s == nil {
		return 0.5
	}
	a := s.acts[actKey]
	if a == nil {
		return 0.5
	}
	return (float64(a.cures) + 1) / (float64(a.tries) + 2)
}

// Duration returns the EWMA duration of the action at the site, ok=false
// before any timed sample.
func (e *Estimator) Duration(site, actKey string) (time.Duration, bool) {
	s := e.sites[site]
	if s == nil {
		return 0, false
	}
	a := s.acts[actKey]
	if a == nil || !a.hasDur {
		return 0, false
	}
	return time.Duration(a.dur * float64(time.Second)), true
}

// MTTF returns the EWMA failure inter-arrival at the site, ok=false before
// two failures.
func (e *Estimator) MTTF(site string) (time.Duration, bool) {
	s := e.sites[site]
	if s == nil || s.mttf == 0 {
		return 0, false
	}
	return time.Duration(s.mttf * float64(time.Second)), true
}

// Failures returns the number of failures observed at the site.
func (e *Estimator) Failures(site string) int {
	if s := e.sites[site]; s != nil {
		return s.failures
	}
	return 0
}

// Render prints the estimates in deterministic sorted order (ops console,
// treeopt, tests).
func (e *Estimator) Render() string {
	var sb strings.Builder
	sites := make([]string, 0, len(e.sites))
	for name := range e.sites {
		sites = append(sites, name)
	}
	sort.Strings(sites)
	for _, name := range sites {
		s := e.sites[name]
		mttf := "—"
		if s.mttf > 0 {
			mttf = fmt.Sprintf("%.1fs", s.mttf)
		}
		fmt.Fprintf(&sb, "%s: failures=%d mttf=%s\n", name, s.failures, mttf)
		keys := make([]string, 0, len(s.acts))
		for k := range s.acts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a := s.acts[k]
			dur := "—"
			if a.hasDur {
				dur = fmt.Sprintf("%.2fs", a.dur)
			}
			fmt.Fprintf(&sb, "  %-40s p=%.2f (%d/%d) dur=%s\n",
				k, (float64(a.cures)+1)/(float64(a.tries)+2), a.cures, a.tries, dur)
		}
	}
	return sb.String()
}

package obs

import (
	"maps"
	"sync"
)

// DefaultAlpha is the smoothing factor used by the serving layers'
// latency EWMAs: each observation contributes 20%, so the estimate
// settles within ~10 observations yet still damps single outliers.
const DefaultAlpha = 0.2

// EWMA is an exponentially-weighted moving average: a one-number
// steady-state estimate of a noisy signal, updated in O(1) per
// observation. The first observation seeds the average directly so a
// cold EWMA is never dragged through zero. Safe for concurrent use.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	n     int64
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// out-of-range alphas fall back to DefaultAlpha.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.value = x
	} else {
		e.value += e.alpha * (x - e.value)
	}
	e.n++
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Count returns the number of observations folded in.
func (e *EWMA) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// EWMASet is a concurrent map of EWMAs keyed by string — one
// steady-state latency estimate per algorithm, per shard, per
// whatever the caller keys on. Keys are created on first observation,
// up to maxSeries of them; further new keys share otherLabel's.
type EWMASet struct {
	alpha float64
	mu    sync.RWMutex
	m     map[string]*EWMA
}

// NewEWMASet returns an empty set whose EWMAs use the given alpha
// (out-of-range alphas fall back to DefaultAlpha).
func NewEWMASet(alpha float64) *EWMASet {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &EWMASet{alpha: alpha, m: make(map[string]*EWMA)}
}

// get returns the EWMA for key, creating it on first use.
func (s *EWMASet) get(key string) *EWMA {
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key, e, ok = bounded(s.m, key, otherLabel)
	if ok {
		return e
	}
	e = NewEWMA(s.alpha)
	s.m[key] = e
	return e
}

// Observe folds one sample into key's average.
func (s *EWMASet) Observe(key string, x float64) { s.get(key).Observe(x) }

// Value returns key's current estimate (0 for an unknown key).
func (s *EWMASet) Value(key string) float64 {
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return 0
	}
	return e.Value()
}

// Snapshot returns every key's current estimate (nil when empty).
func (s *EWMASet) Snapshot() map[string]float64 {
	s.mu.RLock()
	keys := maps.Clone(s.m)
	s.mu.RUnlock()
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]float64, len(keys))
	for k, e := range keys {
		out[k] = e.Value()
	}
	return out
}

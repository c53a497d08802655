package phy

import (
	"fmt"
	"math"

	"fourbit/internal/sim"
)

// ouState is a lazily-advanced Ornstein–Uhlenbeck (mean-reverting Gaussian)
// process sample. The OU process models slow temporal variation: per-link
// multipath fading and per-node noise-floor drift. Lazy advancement keeps
// the simulation event-free between queries while remaining exact: the OU
// transition density between two sample times has the closed form
//
//	X(t+dt) = X(t)·e^(−dt/τ) + N(0, σ²·(1 − e^(−2dt/τ)))
//
// The struct is deliberately 16 bytes: the channel holds one per
// stored pair and samples them in data-dependent order, so the array is
// sized and accessed like a hash table — lastPlus1 packs the "ever
// sampled" flag into the timestamp (0 = never; otherwise sample time + 1)
// to avoid a padded bool widening every state by half a cache line.
type ouState struct {
	value     float64
	lastPlus1 sim.Time // 0 = uninitialized; else last sample time + 1
}

const (
	ouCoeffBits  = 6
	ouCoeffSlots = 1 << ouCoeffBits
)

// ouCoeffs memoizes the OU transition coefficients of one process family
// (one fixed tau/sigma pair): decay = e^(−dt/τ) and the shock scale
// σ·sqrt(1 − decay²) depend only on the integer step dt, and steps repeat
// heavily — every receiver of a frame advances its process from the
// same previous event, so a whole candidate sweep shares one or two dt
// values. A small direct-mapped cache keyed by dt therefore eliminates the
// exp+sqrt pair from most hot-path queries. It is exactness-transparent:
// a hit replays coefficients computed by the identical expressions on the
// identical inputs, so the simulation's floats do not move by one bit.
type ouCoeffs struct {
	dt    [ouCoeffSlots]sim.Time // 0 = empty (sample only probes for dt > 0)
	decay [ouCoeffSlots]float64
	diff  [ouCoeffSlots]float64
}

// slot maps a step to its cache slot: a multiplicative hash so steps that
// differ only in low-order ticks spread across slots.
func (c *ouCoeffs) slot(dt sim.Time) uint {
	return uint(uint64(dt) * 0x9e3779b97f4a7c15 >> (64 - ouCoeffBits))
}

// sample advances the process to time t and returns its value. sigma is the
// stationary standard deviation and tau the relaxation time; co caches the
// per-step transition coefficients for this (tau, sigma) family.
func (o *ouState) sample(t sim.Time, tau sim.Time, sigma float64, rng *sim.Rand, co *ouCoeffs) float64 {
	if sigma == 0 || tau <= 0 {
		return 0
	}
	if o.lastPlus1 == 0 {
		o.value = rng.Normal(0, sigma)
		o.lastPlus1 = t + 1
		return o.value
	}
	dt := t - (o.lastPlus1 - 1)
	if dt <= 0 {
		return o.value
	}
	i := co.slot(dt)
	if co.dt[i] != dt {
		a := math.Exp(-float64(dt) / float64(tau))
		co.dt[i], co.decay[i], co.diff[i] = dt, a, sigma*math.Sqrt(1-float64(a*a))
	}
	o.value = float64(o.value*co.decay[i]) + rng.Normal(0, co.diff[i])
	o.lastPlus1 = t + 1
	return o.value
}

// GilbertElliott is a two-state continuous-time Markov channel modifier used
// to script bursty / bimodal link behaviour (the §2.1 failure case for
// physical-layer-only estimation). In the Good state it adds no loss; in
// the Bad state it adds BadLossDB of attenuation — large enough that packets
// are not received at all, so the packets that *are* received (during Good
// sojourns) still carry high LQI.
//
// The chain is sampled lazily at query times using the exact two-state
// marginal: with λ = 1/MeanGood, μ = 1/MeanBad and πG = μ/(λ+μ),
// P(Good at t | state at t0) = πG + (1{Good at t0} − πG)·e^(−(λ+μ)(t−t0)).
type GilbertElliott struct {
	// BadLossDB, MeanGood and MeanBad are construction-time parameters,
	// exported for inspection only: the transition rates are derived from
	// them once in NewGilbertElliott, so mutating them afterwards does not
	// change the chain's dynamics. Build a new process instead.
	BadLossDB float64  // extra attenuation in the Bad state
	MeanGood  sim.Time // mean sojourn in Good
	MeanBad   sim.Time // mean sojourn in Bad
	From      sim.Time // activation window start
	Until     sim.Time // activation window end (0 = forever); set via Window

	rng     *sim.Rand
	state   bool // true = Good
	last    sim.Time
	started bool

	// Transition rates derived from the sojourn means once at
	// construction — ExtraLossDB sits on the per-reception noise path, and
	// the three divisions per query were measurable there.
	lambda  float64 // Good -> Bad rate, 1/MeanGood
	mu      float64 // Bad -> Good rate, 1/MeanBad
	piGood  float64 // stationary P(Good) = mu/(lambda+mu)
	rateSum float64 // lambda + mu

	// Decay memo, same trick as ouCoeffs: queries arrive on the regular
	// cadence of reception events, so the step t−last repeats and
	// e^(−(λ+μ)·dt) can be replayed instead of recomputed. The default
	// memo is process-local; SharedDecay points a family of identically
	// parameterized processes (e.g. a channel's per-node noise bursts) at
	// one common cache, so a step seen by any member hits for all.
	// memoStep == 0 means empty (only consulted for positive steps).
	memoStep  sim.Time
	memoDecay float64
	shared    *geCoeffs
}

// geCoeffs is a direct-mapped decay cache shared by a family of
// GilbertElliott processes with one (λ+μ). Exactness-transparent like
// ouCoeffs: a hit replays e^(−(λ+μ)·dt) computed by the identical
// expression on the identical step.
type geCoeffs struct {
	dt    [ouCoeffSlots]sim.Time // 0 = empty
	decay [ouCoeffSlots]float64
}

// SharedDecay attaches the process to a family decay cache and returns the
// receiver. All members must have identical rate sums (identical sojourn
// means); the caller guarantees this.
func (g *GilbertElliott) SharedDecay(c *geCoeffs) *GilbertElliott {
	g.shared = c
	return g
}

// NewGilbertElliott returns a burst process driven by rng. The process is
// active only inside [from, until); outside the window it adds no loss and
// holds the chain in Good. Both sojourn means must be positive: a zero
// mean would turn into an infinite transition rate and feed NaN
// probabilities into the chain's Bernoulli draws, so it panics here, at
// the construction site that can name the bad parameter.
func NewGilbertElliott(badLossDB float64, meanGood, meanBad sim.Time, rng *sim.Rand) *GilbertElliott {
	if meanGood <= 0 || meanBad <= 0 {
		panic(fmt.Sprintf("phy: GilbertElliott sojourn means must be positive (meanGood=%v meanBad=%v)",
			meanGood, meanBad))
	}
	lambda := 1 / meanGood.Seconds()
	mu := 1 / meanBad.Seconds()
	return &GilbertElliott{
		BadLossDB: badLossDB,
		MeanGood:  meanGood,
		MeanBad:   meanBad,
		rng:       rng,
		state:     true,
		lambda:    lambda,
		mu:        mu,
		piGood:    mu / (lambda + mu),
		rateSum:   lambda + mu,
	}
}

// Window restricts the process to [from, until) and returns the receiver.
func (g *GilbertElliott) Window(from, until sim.Time) *GilbertElliott {
	g.From, g.Until = from, until
	return g
}

// ExtraLossDB reports the additional attenuation the process imposes at t.
func (g *GilbertElliott) ExtraLossDB(t sim.Time) float64 {
	if t < g.From || (g.Until > 0 && t >= g.Until) {
		g.state, g.started = true, false
		return 0
	}
	if !g.started {
		g.started = true
		g.last = t
		g.state = g.rng.Bernoulli(g.piGood)
	} else if step := t - g.last; step > 0 {
		var decay float64
		switch {
		case g.shared != nil:
			c := g.shared
			i := uint(uint64(step) * 0x9e3779b97f4a7c15 >> (64 - ouCoeffBits))
			if c.dt[i] != step {
				c.dt[i], c.decay[i] = step, math.Exp(-g.rateSum*step.Seconds())
			}
			decay = c.decay[i]
		case step == g.memoStep:
			decay = g.memoDecay
		default:
			decay = math.Exp(-g.rateSum * step.Seconds())
			g.memoStep, g.memoDecay = step, decay
		}
		var pGood float64
		if g.state {
			pGood = g.piGood + float64((1-g.piGood)*decay)
		} else {
			pGood = g.piGood - float64(g.piGood*decay)
		}
		g.state = g.rng.Bernoulli(pGood)
		g.last = t
	}
	if g.state {
		return 0
	}
	return g.BadLossDB
}

// StationaryBadFraction returns the long-run fraction of time in Bad.
func (g *GilbertElliott) StationaryBadFraction() float64 {
	return g.lambda / g.rateSum
}

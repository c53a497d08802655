package sim

import (
	"hash/fnv"
	"math/rand"
)

// SeedSpace derives independent, reproducible random streams from one master
// seed. Stream identity is by name, so adding or removing streams never
// perturbs the sequences of the others — a property the experiment harness
// relies on when comparing protocol variants on "the same" channel.
//
// A SeedSpace and the streams it hands out are single-goroutine state, like
// the Simulator they feed. Concurrent simulations each build their own
// SeedSpace from their own master seed (the experiment runner's per-run
// isolation); nothing here is shared between runs.
type SeedSpace struct {
	master  uint64
	streams map[string]*Rand
	lights  map[string]*Rand // lazily built; see Light
}

// NewSeedSpace returns a seed space rooted at master.
func NewSeedSpace(master uint64) *SeedSpace {
	return &SeedSpace{master: master, streams: make(map[string]*Rand)}
}

// Stream returns the stream for name, creating it on first use.
func (ss *SeedSpace) Stream(name string) *Rand {
	if r, ok := ss.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := splitmix64(ss.master ^ h.Sum64())
	r := NewRand(seed)
	ss.streams[name] = r
	return r
}

// splitmix64 is the finalizer from Vigna's SplitMix64; it decorrelates
// related seeds (master ^ hash collisions of nearby names).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Light returns the named lightweight stream, creating it on first use.
// Seed derivation matches Stream (fnv64a of the name xor master, finalized
// by SplitMix64), but the generator is a SplitMix64 sequence instead of the
// lagged-Fibonacci source: 8 bytes of state versus ~5 KB. The sharded
// medium hands every node three private streams (reception, fade, noise)
// so that shards never contend on a shared generator — at 10k nodes the
// lagged-Fibonacci source would cost ~150 MB where SplitMix64 costs ~2 MB.
// Light and Stream names live in separate namespaces; reusing a name
// across them is fine.
func (ss *SeedSpace) Light(name string) *Rand {
	if ss.lights == nil {
		ss.lights = make(map[string]*Rand)
	}
	if r, ok := ss.lights[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := NewLightRand(splitmix64(ss.master ^ h.Sum64()))
	ss.lights[name] = r
	return r
}

// lightSource is a SplitMix64 generator behind the rand.Source interface.
// It deliberately does not implement rand.Source64 so that, like
// countingSource, every state transition funnels through Int63.
type lightSource struct{ state uint64 }

func (s *lightSource) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

func (s *lightSource) Seed(seed int64) { s.state = uint64(seed) }

// NewLightRand returns a stream backed by an 8-byte SplitMix64 source
// instead of the ~5 KB lagged-Fibonacci state. Statistically SplitMix64
// passes BigCrush; the trade is a shorter period (2^64), which is far
// beyond any simulated run. Use for large per-node stream families.
func NewLightRand(seed uint64) *Rand {
	s := &lightStream{src: lightSource{state: seed}}
	s.r = *rand.New(&s.src)
	s.Rand.Rand = &s.r
	return &s.Rand
}

// Rand is a deterministic random stream with the distributions the
// simulator's models need. It wraps math/rand.Rand, so every distribution
// is math/rand's own code, over a source seeded through SplitMix64.
type Rand struct {
	*rand.Rand
	counted *countingSource // nil for ordinary (un-snapshotable) streams
}

// The stream types hold a Rand, the rand.Rand it points to and that
// rand.Rand's source by value, so building a stream is one allocation.
type (
	stream struct {
		Rand
		r   rand.Rand
		src lfSource
	}
	countedStream struct {
		Rand
		r   rand.Rand
		src countingSource
	}
	lightStream struct {
		Rand
		r   rand.Rand
		src lightSource
	}
)

// NewRand returns a stream seeded with seed: math/rand's sequence for the
// seed splitmix64(seed).
func NewRand(seed uint64) *Rand {
	s := new(stream)
	s.src.Seed(int64(splitmix64(seed)))
	s.r = *rand.New(&s.src)
	s.Rand.Rand = &s.r
	return &s.Rand
}

// countingSource wraps the lagged-Fibonacci source and counts
// state-advancing draws, so a counted Rand's position in its stream is
// (seed, draws) — the whole state the estimator snapshot/restore path
// needs. It deliberately does NOT implement rand.Source64: math/rand then
// derives Uint64 from two Int63 calls, so every state transition funnels
// through Int63 and one counter fully determines the stream position.
type countingSource struct {
	src   lfSource
	seed  uint64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// NewCountedRand returns a stream that yields exactly the values of
// NewRand(seed) for every Int63-derived draw (Float64, Intn, Normal, Exp,
// Bernoulli, ... — everything the estimators use) while tracking its draw
// position, so SnapshotState can serialize it and RestoreCountedRand can
// rebuild it mid-stream. Long-running estimator instances (internal/serve)
// are built over counted streams; simulation streams stay uncounted and pay
// nothing.
func NewCountedRand(seed uint64) *Rand {
	s := new(countedStream)
	s.src.seed = seed
	s.src.src.Seed(int64(splitmix64(seed)))
	s.r = *rand.New(&s.src)
	s.Rand = Rand{Rand: &s.r, counted: &s.src}
	return &s.Rand
}

// RestoreCountedRand returns a counted stream fast-forwarded to the given
// draw position: it is bit-identical, draw for draw, to NewCountedRand(seed)
// after draws state advances. Replay cost is one source step per draw
// (~ns); estimator streams advance only on admission decisions, so
// positions stay small.
func RestoreCountedRand(seed uint64, draws uint64) *Rand {
	r := NewCountedRand(seed)
	for i := uint64(0); i < draws; i++ {
		r.counted.src.Uint64()
	}
	r.counted.draws = draws
	return r
}

// SnapshotState reports the stream's seed and draw position. ok is false
// for streams not built with NewCountedRand/RestoreCountedRand — their
// position is unobservable and they cannot be snapshotted.
func (r *Rand) SnapshotState() (seed, draws uint64, ok bool) {
	if r.counted == nil {
		return 0, 0, false
	}
	return r.counted.seed, r.counted.draws, true
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a sample from U[lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64()) // rounded: no fused multiply-add
}

// UniformTime returns a Time sampled from U[lo, hi).
func (r *Rand) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Int63n(int64(hi-lo)))
}

// Normal returns a sample from N(mean, sigma^2).
func (r *Rand) Normal(mean, sigma float64) float64 {
	return mean + float64(sigma*r.NormFloat64()) // rounded: no fused multiply-add
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// ExpTime returns an exponentially distributed Time with the given mean.
func (r *Rand) ExpTime(mean Time) Time {
	return Time(r.ExpFloat64() * float64(mean))
}

package sim

import "math/rand"

// lfSource is math/rand's additive lagged-Fibonacci source (Mitchell and
// Reeds): the same 607-word register, tap and feed, the same Seed, Int63
// and Uint64, so for every seed it yields math/rand's sequence draw for
// draw. Go's compatibility promise covers that sequence (math/rand keeps
// the outputs of a seeded source fixed), which is what lets the simulator
// own a copy. Only seeding differs: math/rand steps its seed through 1,841
// sequential Schrage divisions; Seed here multiplies and folds modulo the
// Mersenne prime 2^31-1 along three independent chains, which is the same
// arithmetic without a divide.
type lfSource struct {
	tap, feed int
	vec       [lfLen]int64
}

const (
	lfLen   = 607
	lfTap   = 273
	lfMod   = 1<<31 - 1                     // the seed generator's modulus, math/rand's int32max
	lfMul   = 48271                         // x ← 48271·x mod (2^31-1)
	lfMul3  = lfMul * lfMul * lfMul % lfMod // three steps: one chain's stride
	lfMul7  = lfMul3 * lfMul3 % lfMod * lfMul % lfMod
	lfMul21 = lfMul7 * lfMul7 % lfMod * lfMul7 % lfMod // the 20 discarded steps and the first kept one
)

// lfCooked is math/rand's seeding table (rngCooked), derived rather than
// copied: see deriveCooked.
var lfCooked = deriveCooked()

// mulMod returns a·x mod (2^31-1) for a, x < 2^31 by folding the 62-bit
// product at bit 31 (2^31 ≡ 1); x is never 0, so neither is the result.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&lfMod + p>>31
	if r >= lfMod {
		r -= lfMod
	}
	return r
}

// Seed sets the register exactly as math/rand's rngSource.Seed does.
func (s *lfSource) Seed(seed int64) { s.seed(seed, &lfCooked) }

// seed fills the register for seed, each word XORed with the word of mask.
// math/rand builds word i from seed-generator steps 21+3i, 22+3i and 23+3i,
// so three chains strided by 48271^3 produce the words with overlapping
// latencies.
func (s *lfSource) seed(seed int64, mask *[lfLen]int64) {
	s.tap, s.feed = 0, lfLen-lfTap
	seed %= lfMod
	if seed < 0 {
		seed += lfMod
	}
	if seed == 0 {
		seed = 89482311
	}
	a := mulMod(lfMul21, uint64(seed))
	b := mulMod(lfMul, a)
	c := mulMod(lfMul, b)
	for i := range s.vec {
		s.vec[i] = int64(a<<40^b<<20^c) ^ mask[i]
		a, b, c = mulMod(lfMul3, a), mulMod(lfMul3, b), mulMod(lfMul3, c)
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 steps the register: vec[feed] += vec[tap], both indices moving
// down one word.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// deriveCooked recovers math/rand's seeding table from its own outputs:
// the register rand.NewSource(1) seeded is the table XOR the unmasked
// register of seed 1, and 607 outputs give that register back by
// subtraction. Output k (from 0) writes y[k] = vec[f] + vec[t] into vec[f]
// with f = (333-k) mod 607 and t = 606-k. For k >= 273, vec[t] is already
// y[k-273]; for k < 273 it is a seeded word recovered by the first loop.
func deriveCooked() (cooked [lfLen]int64) {
	std := rand.NewSource(1).(rand.Source64)
	var y, reg [lfLen]int64
	for k := range y {
		y[k] = int64(std.Uint64())
	}
	for k := lfTap; k < lfLen; k++ {
		reg[(2*lfLen-lfTap-1-k)%lfLen] = y[k] - y[k-lfTap]
	}
	for k := 0; k < lfTap; k++ {
		reg[lfLen-lfTap-1-k] = y[k] - reg[lfLen-1-k]
	}
	var plain lfSource
	plain.seed(1, &[lfLen]int64{})
	for i := range cooked {
		cooked[i] = reg[i] ^ plain.vec[i]
	}
	return cooked
}

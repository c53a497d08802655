package phy

import (
	"fmt"
	"math"
	"sync/atomic"

	"fourbit/internal/sim"
)

// Params configures the channel model. The defaults approximate an indoor
// office deployment of CC2420-class radios, with per-node hardware variation
// as characterized by Zuniga & Krishnamachari (ToSN'07) — the source the
// paper cites for link unreliability and asymmetry.
type Params struct {
	// Path loss: PL(d) = PathLossRefDB + 10·Exponent·log10(d/1m).
	PathLossRefDB    float64
	PathLossExponent float64
	// Lognormal shadowing, sampled once per unordered node pair (the static
	// environment is symmetric; asymmetry comes from hardware variation).
	ShadowSigmaDB float64
	// Per-node transmit power offset and receiver noise-figure offset
	// (hardware variation ⇒ persistent link asymmetry).
	TxVarSigmaDB    float64
	NoiseFigSigmaDB float64
	// Thermal noise floor and its slow per-node drift (interference from
	// the 2.4 GHz band, temperature, ...).
	NoiseFloorDBm     float64
	NoiseDriftSigmaDB float64
	NoiseDriftTau     sim.Time
	// Per-link time-varying fading. Combined with the steep 802.15.4 PRR
	// waterfall this makes marginal links bursty/bimodal while leaving
	// high-margin links untouched.
	FadeSigmaDB float64
	FadeTau     sim.Time
	// Receiver-side noise bursts: external 2.4 GHz interference (WiFi,
	// microwave ovens) periodically raises one receiver's noise floor by
	// NoiseBurstAmpDB for ~NoiseBurstMeanOn at a time. Packets received
	// outside bursts carry full LQI, so the resulting loss is invisible to
	// physical-layer metrics — but the ack bit sees it, and a 4B node can
	// route around the deaf receiver.
	NoiseBurstAmpDB   float64
	NoiseBurstMeanOn  sim.Time
	NoiseBurstMeanOff sim.Time
	// PacketJitterSigmaDB is fast per-packet channel variation (multipath
	// inter-symbol interference, co-channel noise) applied independently
	// to each frame's effective SNR. With the steep 802.15.4 waterfall it
	// is what produces the wide band of intermediate-quality links real
	// testbeds show — and the LQI optimism bias: packets that survive a
	// low draw are rare, so received packets systematically report better
	// channel quality than the link average.
	PacketJitterSigmaDB float64
}

// DefaultParams returns the indoor-office parameterization used by the
// Mirage-style experiments. The reference loss is calibrated so hop depths
// match the paper's testbeds: at 0 dBm the reliable range is ~40 m (1–2 hop
// networks on a 48×28 m floor), shrinking to ~9 m at −20 dBm (4+ hops) —
// the depth progression of the paper's Figure 7.
func DefaultParams() Params {
	return Params{
		PathLossRefDB:       47,
		PathLossExponent:    3.0,
		ShadowSigmaDB:       3.2,
		TxVarSigmaDB:        2.0,
		NoiseFigSigmaDB:     0.9,
		NoiseFloorDBm:       -98,
		NoiseDriftSigmaDB:   0.8,
		NoiseDriftTau:       5 * sim.Minute,
		FadeSigmaDB:         2.0,
		FadeTau:             25 * sim.Second,
		NoiseBurstAmpDB:     10,
		NoiseBurstMeanOn:    300 * sim.Millisecond,
		NoiseBurstMeanOff:   12 * sim.Second,
		PacketJitterSigmaDB: 2.5,
	}
}

// LinkModifier adds scripted, time-varying extra loss to a directed link.
// Scenario builders install modifiers (e.g. a GilbertElliott process) to
// force specific link dynamics, such as the degrading parent link in the
// paper's Figure 3.
type LinkModifier interface {
	ExtraLossDB(t sim.Time) float64
}

// Channel holds the directed link-gain model between n nodes and the
// per-node noise processes. It is built once from node geometry (distances
// plus static obstruction loss, e.g. floors/walls from the topology) and
// then queried per packet.
type Channel struct {
	p Params
	n int

	noiseFigDB []float64         // per node
	noiseDrift []ouState         // per node
	fade       []ouState         // per stored unordered pair (adjPair)
	bursts     []*GilbertElliott // per-node noise bursts (nil if disabled)
	noiseMods  [][]LinkModifier  // per-node scripted noise excursions (nil if unused)

	// Audible-set adjacency (see spatial.go): a symmetric CSR over the
	// stored directed links. adjNbr[adjOff[i]:adjOff[i+1]] lists i's
	// audible neighbors ascending; the parallel arrays carry the directed
	// static gain (dB and linear, the latter so the per-frame path converts
	// only the time-varying dB terms) and the pair's index into fade.
	// Culled links read as gain −Inf (0 linear) and hold no state at all —
	// no fading process, no modifier. modMap holds the scripted link
	// modifiers keyed by tx*n+rx (scripted dynamics touch a handful of
	// links; a map beats 800 MB of nil slots at 10k nodes).
	adjOff     []int32
	adjNbr     []int32
	adjGainDB  []float64
	adjGainLin []float64
	adjPair    []int32
	modMap     map[int64]LinkModifier

	noiseMWStatic []float64 // per node: floor + noise figure in milliwatts

	// linkModCount counts the installed link modifiers (SetModifier keeps
	// it): while it is zero — no scripted link dynamics, the common case
	// for every non-scenario run — the per-query fast path skips the
	// modifier map lookup entirely.
	linkModCount int

	// Per-family OU transition-coefficient caches; see ouCoeffs. burstCo
	// is the analogous shared decay cache for the per-node noise-burst
	// processes (identical sojourn means across nodes).
	fadeCo  ouCoeffs
	noiseCo ouCoeffs
	burstCo geCoeffs

	noiseRng *sim.Rand
	fadeRng  *sim.Rand

	// Sharded-dispatch state (nil on the serial path; see EnableSharded):
	// directed fading processes plus per-receiver random streams, so that
	// concurrent shards never touch a shared generator or a shared OU
	// state. shardFade is indexed by adjacency slot. The coefficient
	// caches get per-shard replicas too (indexed by shardOf[rx]): they are
	// exactness-transparent but lazily written, so sharing one across
	// shards would be a data race — and a torn (dt, decay) pair read by
	// another shard would silently corrupt a sample.
	shardFade     []ouState
	shardFadeRng  []*sim.Rand
	shardNoiseRng []*sim.Rand
	shardOf       []int32
	shardFadeCo   []ouCoeffs
	shardNoiseCo  []ouCoeffs
	shardBurstCo  []geCoeffs
}

// EnableSharded switches the channel's time-varying processes to their
// sharded representation: one fading process per *directed* link (the
// serial channel shares one per unordered pair, which two shards would
// race on), per-receiver lightweight random streams for fading, noise
// drift, and reception draws, and per-shard transition-coefficient caches
// — every piece of state a query can touch is owned by the shard that
// owns the receiver (shardOf). Results therefore differ from the serial
// channel — the two directions of a link fade independently — but are
// bit-identical for any shard count, which is the invariant the sharded
// dispatcher certifies (the caches never change a value, only how often
// it is recomputed). Idempotent; must be called before the simulation
// starts.
func (c *Channel) EnableSharded(seeds *sim.SeedSpace, shardOf []int32, shards int) {
	if c.shardFadeRng != nil {
		return
	}
	c.shardFade = make([]ouState, len(c.adjNbr))
	c.shardFadeRng = make([]*sim.Rand, c.n)
	c.shardNoiseRng = make([]*sim.Rand, c.n)
	for i := 0; i < c.n; i++ {
		c.shardFadeRng[i] = seeds.Light(fmt.Sprintf("shard/fade/%d", i))
		c.shardNoiseRng[i] = seeds.Light(fmt.Sprintf("shard/noise/%d", i))
	}
	c.shardOf = shardOf
	c.shardFadeCo = make([]ouCoeffs, shards)
	c.shardNoiseCo = make([]ouCoeffs, shards)
	if c.bursts != nil {
		c.shardBurstCo = make([]geCoeffs, shards)
		for i := 0; i < c.n; i++ {
			c.bursts[i].SharedDecay(&c.shardBurstCo[shardOf[i]])
		}
	}
}

// Sharded reports whether EnableSharded has switched this channel to the
// per-directed-link representation.
func (c *Channel) Sharded() bool { return c.shardFadeRng != nil }

// ChannelPre is the immutable, seed-independent half of a channel: the
// deterministic near-pair geometry (see spatial.go) plus the parameters.
// One ChannelPre serves any number of per-seed Channel instantiations, and
// it is safe to share read-only across goroutines: after PrecomputeGeo
// returns, nothing ever writes it (NewChannel only reads it).
type ChannelPre struct {
	p Params
	n int

	// Near-pair geometry: a CSR over unordered pairs within the cutoff
	// radius (row i lists j > i ascending) with each pair's deterministic
	// path loss and obstruction loss (nearExtra is nil when every
	// obstruction loss is zero), plus the retained Geometry for the rare
	// beyond-cutoff pair whose shadowing draw defeats the certified bound
	// plAtCutoff.
	geo        Geometry
	plAtCutoff float64
	nearOff    []int32
	nearNbr    []int32
	nearPL     []float64
	nearExtra  []float64
}

// precomputeCount counts PrecomputeGeo invocations process-wide. It exists
// so tests can assert that replicated runs share one precompute per cell
// instead of rebuilding the geometry per seed.
var precomputeCount atomic.Uint64

// PrecomputeCount returns the process-wide number of PrecomputeGeo calls
// (test/diagnostic hook for setup-sharing assertions).
func PrecomputeCount() uint64 { return precomputeCount.Load() }

// N returns the number of nodes the precompute covers.
func (pre *ChannelPre) N() int { return pre.n }

// Params returns the channel parameters the precompute was built for.
func (pre *ChannelPre) Params() Params { return pre.p }

// NewChannel instantiates the per-seed half over the shared precompute:
// hardware variation, shadowing, and the dynamic processes, drawn from
// streams of seeds, so two channels built from the same precompute and
// seeds are identical. The receiver is only read; concurrent NewChannel
// calls over one ChannelPre are safe.
func (pre *ChannelPre) NewChannel(seeds *sim.SeedSpace) *Channel {
	n := pre.n
	p := pre.p
	c := &Channel{
		p:          p,
		n:          n,
		noiseFigDB: make([]float64, n),
		noiseDrift: make([]ouState, n),
		noiseRng:   seeds.Stream("phy/noise"),
		fadeRng:    seeds.Stream("phy/fade"),
	}
	static := seeds.Stream("phy/static")
	txOff := make([]float64, n)
	for i := 0; i < n; i++ {
		txOff[i] = static.Normal(0, p.TxVarSigmaDB)
		c.noiseFigDB[i] = static.Normal(0, p.NoiseFigSigmaDB)
	}
	if p.NoiseBurstAmpDB > 0 && p.NoiseBurstMeanOn > 0 && p.NoiseBurstMeanOff > 0 {
		// One backing array, not n heap objects: NoiseMW touches bursts[rx]
		// once per receiver per reception, in receiver order — contiguous
		// processes keep that sweep inside a few pages at city scale.
		c.bursts = make([]*GilbertElliott, n)
		backing := make([]GilbertElliott, n)
		for i := 0; i < n; i++ {
			backing[i] = *NewGilbertElliott(p.NoiseBurstAmpDB,
				p.NoiseBurstMeanOff, p.NoiseBurstMeanOn,
				seeds.Stream(fmt.Sprintf("phy/burst/%d", i)))
			c.bursts[i] = backing[i].SharedDecay(&c.burstCo)
		}
	}
	pre.buildLinks(c, static, txOff)
	c.noiseMWStatic = make([]float64, n)
	for i := 0; i < n; i++ {
		c.noiseMWStatic[i] = DBmToMilliwatts(p.NoiseFloorDBm + c.noiseFigDB[i])
	}
	return c
}

// N returns the number of nodes the channel connects.
func (c *Channel) N() int { return c.n }

// PacketJitterSigmaDB returns the per-packet SNR jitter the medium applies.
func (c *Channel) PacketJitterSigmaDB() float64 { return c.p.PacketJitterSigmaDB }

// GainDB returns the instantaneous channel gain from tx to rx at time t,
// including static path loss/shadowing/hardware offsets, time-varying
// fading, and any installed link modifier. Gain is negative (a loss). A
// culled link reads as −Inf without sampling anything: no fading state
// exists for it, and no modifier can resurrect it (the link was certified
// inaudible at its best; scripted dynamics only ever add loss on top).
func (c *Channel) GainDB(tx, rx int, t sim.Time) float64 {
	slot := c.slotOf(tx, rx)
	if slot < 0 {
		return math.Inf(-1)
	}
	g := c.adjGainDB[slot]
	if c.p.FadeSigmaDB > 0 {
		if c.shardFade != nil {
			g += c.shardFade[slot].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.shardFadeRng[rx], &c.shardFadeCo[c.shardOf[rx]])
		} else {
			// Fading is a property of the physical path: one process per
			// stored unordered pair, so the two directions fade together.
			g += c.fade[c.adjPair[slot]].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
		}
	}
	if c.linkModCount > 0 {
		if m := c.modMap[int64(tx)*int64(c.n)+int64(rx)]; m != nil {
			g -= m.ExtraLossDB(t)
		}
	}
	return g
}

// GainLin is GainDB in linear power ratio, organized so the precomputed
// static gain costs nothing and only the time-varying dB terms (fading,
// modifiers) pay one exp. It samples the same fading process in the same
// order as GainDB, so the two are interchangeable without perturbing the
// random streams. A culled link reads as 0.
func (c *Channel) GainLin(tx, rx int, t sim.Time) float64 {
	slot := c.slotOf(tx, rx)
	if slot < 0 {
		return 0
	}
	return c.gainLinSlot(tx, rx, slot, t)
}

// gainLinSlot is GainLin for a known adjacency slot — the hot path the
// medium uses for candidate receivers, skipping the row search. While no
// link modifiers are installed (linkModCount == 0, maintained by
// SetModifier) the modifier map lookup is skipped entirely.
func (c *Channel) gainLinSlot(tx, rx int, slot int32, t sim.Time) float64 {
	g := c.adjGainLin[slot]
	varDB := 0.0
	if c.p.FadeSigmaDB > 0 {
		if c.shardFade != nil {
			varDB = c.shardFade[slot].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.shardFadeRng[rx], &c.shardFadeCo[c.shardOf[rx]])
		} else {
			varDB = c.fade[c.adjPair[slot]].sample(t, c.p.FadeTau, c.p.FadeSigmaDB, c.fadeRng, &c.fadeCo)
		}
	}
	if c.linkModCount > 0 {
		if lm := c.modMap[int64(tx)*int64(c.n)+int64(rx)]; lm != nil {
			varDB -= lm.ExtraLossDB(t)
		}
	}
	if varDB != 0 {
		g *= DBToLinear(varDB)
	}
	return g
}

// StaticGainDB returns the time-invariant part of the link gain, used for
// neighbor-candidate pruning and for topology reports. Culled links read
// as −Inf.
func (c *Channel) StaticGainDB(tx, rx int) float64 {
	if slot := c.slotOf(tx, rx); slot >= 0 {
		return c.adjGainDB[slot]
	}
	return math.Inf(-1)
}

// NoiseDBm returns the instantaneous noise floor at rx, including slow
// drift and external interference bursts.
func (c *Channel) NoiseDBm(rx int, t sim.Time) float64 {
	nz := c.p.NoiseFloorDBm + c.noiseFigDB[rx]
	if c.p.NoiseDriftSigmaDB > 0 {
		rng, co := c.noiseRng, &c.noiseCo
		if c.shardNoiseRng != nil {
			rng, co = c.shardNoiseRng[rx], &c.shardNoiseCo[c.shardOf[rx]]
		}
		nz += c.noiseDrift[rx].sample(t, c.p.NoiseDriftTau, c.p.NoiseDriftSigmaDB, rng, co)
	}
	if c.bursts != nil {
		nz += c.bursts[rx].ExtraLossDB(t)
	}
	if c.noiseMods != nil {
		for _, m := range c.noiseMods[rx] {
			nz += m.ExtraLossDB(t)
		}
	}
	return nz
}

// NoiseMW is NoiseDBm in milliwatts: the static floor + noise figure come
// from a precomputed table and only the drift/burst dB excursion pays a
// conversion. Sampling order matches NoiseDBm exactly.
func (c *Channel) NoiseMW(rx int, t sim.Time) float64 {
	return noiseMW(c.noiseParts(rx, t))
}

// noiseParts samples rx's noise processes at t, in NoiseDBm's order, and
// returns the two factors of NoiseMW: the static floor + noise figure in
// milliwatts and the time-varying excursion (drift, burst, scripted
// modifiers) in dB. The medium converts the excursion only when a
// reception needs the exact noise power. A second query at one instant
// returns the same parts and draws nothing: the OU process holds its value
// at dt ≤ 0 and the burst process steps only forward.
func (c *Channel) noiseParts(rx int, t sim.Time) (staticMW, excDB float64) {
	if c.p.NoiseDriftSigmaDB > 0 {
		rng, co := c.noiseRng, &c.noiseCo
		if c.shardNoiseRng != nil {
			rng, co = c.shardNoiseRng[rx], &c.shardNoiseCo[c.shardOf[rx]]
		}
		excDB = c.noiseDrift[rx].sample(t, c.p.NoiseDriftTau, c.p.NoiseDriftSigmaDB, rng, co)
	}
	if c.bursts != nil {
		excDB += c.bursts[rx].ExtraLossDB(t)
	}
	if c.noiseMods != nil {
		for _, m := range c.noiseMods[rx] {
			excDB += m.ExtraLossDB(t)
		}
	}
	return c.noiseMWStatic[rx], excDB
}

// noiseMW joins noiseParts' factors into the noise power in milliwatts.
func noiseMW(staticMW, excDB float64) float64 {
	if excDB != 0 {
		staticMW *= DBToLinear(excDB)
	}
	return staticMW
}

// SetModifier installs (or clears, with nil) a scripted loss process on the
// directed link tx→rx. linkModCount tracks how many modifiers are
// installed so the gain fast path can skip the modifier layer entirely
// while the count is zero. Modifiers are honored on stored links only: a
// culled link has no state and reads −Inf regardless, and a loss process
// can never raise a gain that was certified inaudible at its ceiling.
func (c *Channel) SetModifier(tx, rx int, m LinkModifier) {
	if tx < 0 || tx >= c.n || rx < 0 || rx >= c.n {
		panic(fmt.Sprintf("phy: SetModifier(%d,%d) out of range n=%d", tx, rx, c.n))
	}
	key := int64(tx)*int64(c.n) + int64(rx)
	switch old := c.modMap[key]; {
	case old == nil && m != nil:
		c.linkModCount++
	case old != nil && m == nil:
		c.linkModCount--
	}
	if m == nil {
		delete(c.modMap, key)
		return
	}
	if c.modMap == nil {
		c.modMap = make(map[int64]LinkModifier)
	}
	c.modMap[key] = m
}

// SetModifierBoth installs the same modifier on both directions of a link.
func (c *Channel) SetModifierBoth(a, b int, m LinkModifier) {
	c.SetModifier(a, b, m)
	c.SetModifier(b, a, m)
}

// AddNoiseModifier attaches a scripted noise-floor excursion (in dB, via the
// LinkModifier interface) to receiver rx. Scenario dynamics use this for
// mid-run interference onset: a GilbertElliott process windowed to the
// event raises the receiver's noise floor, so losses occur that no received
// packet's LQI can reveal. Multiple modifiers on one receiver add up.
func (c *Channel) AddNoiseModifier(rx int, m LinkModifier) {
	if rx < 0 || rx >= c.n {
		panic(fmt.Sprintf("phy: AddNoiseModifier(%d) out of range n=%d", rx, c.n))
	}
	if c.noiseMods == nil {
		c.noiseMods = make([][]LinkModifier, c.n)
	}
	c.noiseMods[rx] = append(c.noiseMods[rx], m)
}

// ExpectedSNRdB returns the static (no fading, no drift) SNR for a packet
// sent at txPowerDBm from tx to rx — the planning value used by topology
// diagnostics and tests.
func (c *Channel) ExpectedSNRdB(tx, rx int, txPowerDBm float64) float64 {
	return txPowerDBm + c.StaticGainDB(tx, rx) - (c.p.NoiseFloorDBm + c.noiseFigDB[rx])
}

package phy

import "fourbit/internal/sim"

// RxInfo is the per-packet physical-layer metadata attached to every
// received frame. It carries the paper's single physical-layer bit — the
// white bit — together with the raw indicators (LQI, SNR) that protocols
// such as MultiHopLQI consume directly. (A received-signal-strength field
// used to ride along; nothing consumed it, and its dBm conversion was one
// of the costliest operations on the delivery path, so it is gone —
// recover RSSI as SNRdB + noise floor if a future consumer needs it.)
type RxInfo struct {
	At    sim.Time
	SNRdB float64 // effective signal-to-(noise+interference) ratio
	LQI   uint8   // CC2420-style link quality indication, ~[40,110]
	White bool    // the white bit: all symbols decoded with high confidence
}

// LQIParams control the synthesis of the CC2420-style LQI value and of the
// white bit from per-packet SNR.
type LQIParams struct {
	// LQI = clamp(Base + Slope·SNRdB + N(0,NoiseSigma), Min, Max): a linear
	// ramp through the grey region that saturates at Max — the saturation is
	// what blinds LQI to burst losses (Figure 3).
	Base       float64
	Slope      float64
	NoiseSigma float64
	Min, Max   float64
	// WhiteLQI is the white-bit threshold: packets whose synthesized LQI
	// meets it are flagged "channel was clean during this packet".
	WhiteLQI uint8
}

// DefaultLQIParams matches the CC2420's observed behaviour: LQI saturates
// at ~110 already around 4 dB SNR — barely above the reception waterfall —
// and carries substantial per-packet variance below. The early saturation
// is the crux of the paper's Figure 3: every link whose good-phase SNR
// clears ~4 dB shows perfect LQI on the packets that arrive, regardless of
// how many packets never arrive at all (bursty links, asymmetric links).
func DefaultLQIParams() LQIParams {
	return LQIParams{
		Base:       78,
		Slope:      10,
		NoiseSigma: 3.0,
		Min:        40,
		Max:        110,
		WhiteLQI:   100,
	}
}

// Synthesize produces the LQI byte and white bit for a packet received at
// the given SNR.
func (p LQIParams) Synthesize(snrDB float64, rng *sim.Rand) (lqi uint8, white bool) {
	v := p.Base + float64(p.Slope*snrDB) + rng.Normal(0, p.NoiseSigma)
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	lqi = uint8(v + 0.5)
	return lqi, lqi >= p.WhiteLQI
}

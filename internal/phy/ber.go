package phy

import "math"

// BER computes the bit error rate of IEEE 802.15.4 O-QPSK DSSS at 2.4 GHz
// for the given signal-to-noise(-plus-interference) ratio in dB, using the
// standard's analytic expression (also used by Zuniga & Krishnamachari):
//
//	BER = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//
// where γ is the linear SINR. The curve has the characteristic steep
// waterfall between roughly −4 dB and +2 dB that produces the narrow band of
// intermediate-quality links observed on real testbeds.
func BER(sinrDB float64) float64 {
	gamma := DBToLinear(sinrDB)
	var sum float64
	for k := 2; k <= 16; k++ {
		term := float64(binom16[k] * math.Exp(20*gamma*(1/float64(k)-1)))
		if k%2 == 0 {
			sum += term
		} else {
			sum -= term
		}
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// binom16[k] = C(16, k).
var binom16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440,
	12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1,
}

// PRR computes the packet reception ratio for a frame of frameBytes bytes
// (PHY payload: MAC header + payload + CRC; the synchronization header is
// assumed acquired) at the given SINR. Independent bit errors are assumed,
// so PRR = (1 − BER)^(8·frameBytes).
func PRR(sinrDB float64, frameBytes int) float64 {
	if frameBytes <= 0 {
		return 1
	}
	ber := BER(sinrDB)
	if ber == 0 {
		return 1
	}
	return math.Pow(1-ber, float64(8*frameBytes))
}

// SNRForPRR inverts PRR by bisection: it returns the SINR in dB at which a
// frame of frameBytes achieves the target reception ratio. It is used by
// tests and by scenario builders that place links at chosen qualities.
func SNRForPRR(target float64, frameBytes int) float64 {
	if target <= 0 {
		return -20
	}
	if target >= 1 {
		return 20
	}
	lo, hi := -20.0, 20.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if PRR(mid, frameBytes) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

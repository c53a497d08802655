package core

import (
	"fmt"

	"fourbit/internal/packet"
)

// Config parameterizes the estimators. The defaults are the paper's: a
// 10-entry table, unicast window ku=5, beacon window kb=2, and EWMA weights
// of 0.9 for both the beacon-PRR stream and the outer hybrid ETX stream.
// The non-four-bit estimator kinds read the same knobs (table size, alphas,
// eviction policy) plus MAWindow, so one Config parameterizes any kind.
type Config struct {
	TableSize     int
	UnicastWindow int     // ku: transmissions per unicast ETX sample
	BeaconWindow  int     // kb: beacons (received+missed) per PRR sample
	PRRAlpha      float64 // windowed-EWMA weight on beacon PRR samples
	ETXAlpha      float64 // outer EWMA weight on hybrid ETX samples
	MaxETX        float64 // estimate clamp (a dead link)
	FooterEntries int     // link-info entries advertised per beacon
	MaxSeqGap     int     // larger beacon seq gaps reinitialize the window
	// MAWindow is the moving-average window (in beacons) of the wmewma and
	// pdr estimator kinds; 0 means the default (the four-bit estimator does
	// not read it — its windows are BeaconWindow and UnicastWindow).
	MAWindow int
	// EvictETX is the standard (Woo et al. / TinyOS) replacement policy:
	// with a full table, a newcomer may displace the unpinned entry with
	// the worst effective ETX, provided that ETX is at least EvictETX.
	// Entries that have completed several beacon windows without producing
	// an estimate (e.g. the neighbor never reciprocates reverse link
	// information) count as MaxETX — they hold a slot but provide no link.
	EvictETX float64
	// LotteryProb approximates the FREQUENCY part of Woo et al.'s table
	// management: a beacon from an unknown neighbor that finds the table
	// full (and nothing evictable) still claims a slot with this
	// probability, displacing a random unpinned entry. Frequently-heard
	// neighbors (close, reliable) get proportionally many chances, so the
	// table converges toward the most useful senders instead of freezing
	// on whichever ten were heard first — without it, clusters of nodes
	// can lock onto each other and never admit a root-ward link.
	LotteryProb float64
	Features    Features
}

// DefaultConfig returns the paper's parameterization with the full 4B
// feature set.
func DefaultConfig() Config {
	return Config{
		TableSize:     10,
		UnicastWindow: 5,
		BeaconWindow:  2,
		PRRAlpha:      0.9,
		ETXAlpha:      0.9,
		MaxETX:        50,
		FooterEntries: 8,
		MaxSeqGap:     32,
		MAWindow:      defaultMAWindow,
		EvictETX:      6,
		LotteryProb:   0.03,
		Features:      FourBit(),
	}
}

// defaultMAWindow is the moving-average window the wmewma/pdr kinds fall
// back to when Config.MAWindow is zero.
const defaultMAWindow = 5

// MaxTableSize bounds Config.TableSize: a table cannot hold more distinct
// neighbours than the 16-bit address space names, and the table allocates
// its full capacity on first insert.
const MaxTableSize = int(packet.None)

// Validate reports the first structural problem with the configuration.
// Estimator constructors call it (construction panics or errors on an
// invalid config), and scenario spec validation calls it before a run is
// ever scheduled, so a bad knob fails fast instead of producing a silently
// meaningless sweep cell.
func (c Config) Validate() error {
	switch {
	case c.TableSize <= 0:
		return fmt.Errorf("core: TableSize %d must be positive", c.TableSize)
	case c.TableSize > MaxTableSize:
		return fmt.Errorf("core: TableSize %d exceeds the %d-neighbour address space", c.TableSize, MaxTableSize)
	case c.UnicastWindow <= 0:
		return fmt.Errorf("core: UnicastWindow %d must be positive", c.UnicastWindow)
	case c.BeaconWindow <= 0:
		return fmt.Errorf("core: BeaconWindow %d must be positive", c.BeaconWindow)
	case c.MAWindow < 0:
		return fmt.Errorf("core: MAWindow %d must be >= 0 (0 = default)", c.MAWindow)
	case !(c.PRRAlpha > 0 && c.PRRAlpha <= 1):
		return fmt.Errorf("core: PRRAlpha %g outside (0, 1]", c.PRRAlpha)
	case !(c.ETXAlpha > 0 && c.ETXAlpha <= 1):
		return fmt.Errorf("core: ETXAlpha %g outside (0, 1]", c.ETXAlpha)
	case c.MaxETX <= 1:
		return fmt.Errorf("core: MaxETX %g must exceed 1 (a perfect link)", c.MaxETX)
	case c.EvictETX <= 1:
		return fmt.Errorf("core: EvictETX %g must exceed 1 (would evict perfect links)", c.EvictETX)
	case c.EvictETX > c.MaxETX:
		return fmt.Errorf("core: EvictETX %g exceeds MaxETX %g (nothing would ever be evictable)", c.EvictETX, c.MaxETX)
	case c.FooterEntries < 0:
		return fmt.Errorf("core: FooterEntries %d must be >= 0", c.FooterEntries)
	case c.MaxSeqGap <= 0:
		return fmt.Errorf("core: MaxSeqGap %d must be positive", c.MaxSeqGap)
	case c.LotteryProb < 0 || c.LotteryProb > 1:
		return fmt.Errorf("core: LotteryProb %g outside [0, 1]", c.LotteryProb)
	}
	return nil
}

// maWindow resolves the moving-average window, applying the default.
func (c Config) maWindow() int {
	if c.MAWindow > 0 {
		return c.MAWindow
	}
	return defaultMAWindow
}

package phy

import (
	"fmt"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// RadioParams describe the CC2420-class transceiver.
type RadioParams struct {
	BitrateBps        int     // 250 kbit/s for 802.15.4 at 2.4 GHz
	PreambleBytes     int     // synchronization header sent before the frame
	SensitivityDBm    float64 // below this a frame cannot be acquired
	DetectionDBm      float64 // below this a signal contributes nothing
	CCAThresholdDBm   float64 // clear-channel assessment energy threshold
	CaptureDB         float64 // a new signal this much stronger steals the receiver
	DefaultTxPowerDBm float64
	// InterferenceFactor weights co-channel interference relative to
	// thermal noise when computing the effective SINR. Concurrent 802.15.4
	// transmissions are far more destructive than AWGN of the same power
	// (the BER curve's DSSS processing gain does not apply to structured
	// interference), so interference counts this many times its power.
	InterferenceFactor float64
}

// DefaultRadioParams returns CC2420-like values.
func DefaultRadioParams() RadioParams {
	return RadioParams{
		BitrateBps:         250_000,
		PreambleBytes:      6,
		SensitivityDBm:     -100,
		DetectionDBm:       -110,
		CCAThresholdDBm:    -85,
		CaptureDB:          6,
		DefaultTxPowerDBm:  0,
		InterferenceFactor: 6,
	}
}

// Medium connects n radios through a Channel, implementing frame-level
// delivery with SINR-based reception, physical capture, and energy-based
// carrier sense. All radios share one spectrum (one 802.15.4 channel).
type Medium struct {
	clock  *sim.Simulator
	ch     *Channel
	rp     RadioParams
	lqip   LQIParams
	radios []*Radio
	// rxRng is the per-receiver reception stream (jitter, PRR draw, LQI
	// synthesis). Every entry is the one "phy/medium" stream on the serial
	// path; EnableSharded gives each receiver its own.
	rxRng []*sim.Rand

	candidates [][]int32 // per transmitter: receivers within detection range
	candSlots  [][]int32 // per transmitter: channel adjacency slot per candidate

	// Hot-path caches: the radio parameters converted to linear once, the
	// running interference sum per receiver (maintained incrementally as
	// frames arrive and resolve), and a free list of frame records.
	captureLin   float64
	detectMW     float64
	sensMW       float64
	ccaMW        float64
	interfMW     []float64
	powCap       int         // max candidate-set size: length of pooled powMW buffers
	free         []*frame    // recycled frames (serial path; shards keep their own)
	finishFn     func(any)   // m.finishTx adapter, built once for ScheduleArg
	senderDoneFn func(any)   // ends a sender's airtime where finishTx does not (sharded, powered off)
	prrT         []*PRRTable // per frame length, filled lazily from the shared cache

	sh *shardedMedium // nil on the serial path; see EnableSharded

	Stats MediumStats
}

// MediumStats aggregate frame outcomes across all radios.
type MediumStats struct {
	Transmissions    uint64
	Delivered        uint64
	DroppedBER       uint64 // failed the SINR reception draw, no interference present
	DroppedCollision uint64 // failed the draw with interference present
	CaptureSwitches  uint64 // receptions stomped by a much stronger signal
	DroppedTxWhileRx uint64 // receptions aborted because the radio turned around to transmit
	DroppedRadioDown uint64 // receptions aborted because the radio powered off
}

// add accumulates o into s. The sharded barrier rebuilds Stats from the
// shard counters through it, so a field missing here would read zero on
// that path (TestMediumStatsAddCoversEveryField).
func (s *MediumStats) add(o *MediumStats) {
	s.Transmissions += o.Transmissions
	s.Delivered += o.Delivered
	s.DroppedBER += o.DroppedBER
	s.DroppedCollision += o.DroppedCollision
	s.CaptureSwitches += o.CaptureSwitches
	s.DroppedTxWhileRx += o.DroppedTxWhileRx
	s.DroppedRadioDown += o.DroppedRadioDown
}

// frame is one packet on the air, pooled with its power buffer. data is
// the sender's bytes on the serial path and a copy on the sharded path,
// where the MAC reuses its encode buffer an epoch before the last
// receiver resolves. dst is the link-layer destination read from data at
// transmit, or anyRadio for broadcasts and frames too short to carry one
// (every radio takes those). powMW holds the power each candidate
// receiver picked up, indexed by the sender's candidate position (0 =
// undetectable); resolve zeroes every entry it visits, so a frame goes
// back to its pool with a clean buffer and no receiver pointing at it.
type frame struct {
	from    int32
	dst     int32
	refs    int32 // sharded path: target shards yet to resolve (atomic)
	start   sim.Time
	end     sim.Time
	txPowMW float64
	data    []byte
	powMW   []float64
}

type reception struct {
	f           *frame
	powerMW     float64
	curInterfMW float64
	maxInterfMW float64
}

// NewMedium builds the shared medium. Radios are created for every node of
// the channel with the default transmit power.
func NewMedium(clock *sim.Simulator, ch *Channel, rp RadioParams, lqip LQIParams, seeds *sim.SeedSpace) *Medium {
	m := &Medium{
		clock: clock,
		ch:    ch,
		rp:    rp,
		lqip:  lqip,
	}
	n := ch.N()
	m.finishFn = func(a any) { m.finishTx(a.(*frame)) }
	m.senderDoneFn = func(a any) { a.(*Radio).transmitting = false }
	m.captureLin = DBToLinear(rp.CaptureDB)
	m.detectMW = DBmToMilliwatts(rp.DetectionDBm)
	m.sensMW = DBmToMilliwatts(rp.SensitivityDBm)
	m.ccaMW = DBmToMilliwatts(rp.CCAThresholdDBm)
	m.interfMW = make([]float64, n)
	rng := seeds.Stream("phy/medium")
	m.rxRng = make([]*sim.Rand, n)
	for i := range m.rxRng {
		m.rxRng[i] = rng
	}
	// One contiguous backing array for the radios: the per-candidate hot
	// loops chase radios[j] for scattered j, and spreading n individually
	// allocated structs across the heap costs a cache miss per visit at
	// city scale.
	m.radios = make([]*Radio, n)
	backing := make([]Radio, n)
	for i := 0; i < n; i++ {
		backing[i] = Radio{m: m, id: i, addr: anyRadio}
		m.radios[i] = &backing[i]
		m.radios[i].SetTxPower(rp.DefaultTxPowerDBm)
	}
	// Candidate receivers: static gain at maximum plausible power
	// (audibleMaxTxPowerDBm) plus a fade margin (audibleFadeMarginDB) must
	// clear the detection floor. The margin is generous so that fading can
	// only shrink, never grow, the true receiver set. The channel offers
	// only its stored audible set, which must therefore floor at or below
	// what this filter could admit, or culling would change results.
	need := rp.DetectionDBm - audibleMaxTxPowerDBm - audibleFadeMarginDB
	if audibleFloorDB > need-0.25 {
		panic(fmt.Sprintf("phy: channel floor %.2f dB too high for detection threshold %.2f dBm (needs <= %.2f)",
			audibleFloorDB, rp.DetectionDBm, need-0.25))
	}
	// Candidates are a subset of the stored links, so one backing array
	// sized by AudibleLinks holds every candidate list and its slots.
	links := ch.AudibleLinks()
	buf := make([]int32, 2*links)
	cands, slots := buf[:0:links], buf[links:links]
	m.candidates = make([][]int32, n)
	m.candSlots = make([][]int32, n)
	for i := 0; i < n; i++ {
		lo := len(cands)
		for s := ch.adjOff[i]; s < ch.adjOff[i+1]; s++ {
			if audibleMaxTxPowerDBm+ch.adjGainDB[s]+audibleFadeMarginDB >= rp.DetectionDBm {
				cands = append(cands, ch.adjNbr[s])
				slots = append(slots, s)
			}
		}
		m.candidates[i] = cands[lo:len(cands):len(cands)]
		m.candSlots[i] = slots[lo:len(slots):len(slots)]
		m.powCap = max(m.powCap, len(cands)-lo)
	}
	return m
}

// Radio returns the radio of node id.
func (m *Medium) Radio(id int) *Radio { return m.radios[id] }

// N returns the number of radios.
func (m *Medium) N() int { return len(m.radios) }

// Airtime returns the on-air duration of a frame of payloadBytes (MAC header
// + payload + CRC), including the synchronization header.
func (m *Medium) Airtime(payloadBytes int) sim.Time {
	bits := int64(m.rp.PreambleBytes+payloadBytes) * 8
	return sim.Time(bits * int64(sim.Second) / int64(m.rp.BitrateBps))
}

// local returns the wheel and the counters radio id's own events use, and
// its shard: the medium's own wheel and Stats with a nil shard on the
// serial path; the shard's wheel and share of the counters (summed into
// Stats at each barrier) on the sharded path.
func (m *Medium) local(id int) (*sim.Simulator, *MediumStats, *mediumShard) {
	if m.sh == nil {
		return m.clock, &m.Stats, nil
	}
	st := &m.sh.shards[m.sh.shardOf[id]]
	return st.clock, &st.stats, st
}

// getFrame pops a recycled frame from free, or builds one whose zeroed
// power buffer is sized for the largest candidate set (indexed by
// candidate position, so it stays cache-resident at city scale instead of
// spanning all n nodes).
func getFrame(free *[]*frame, powCap int) *frame {
	if n := len(*free); n > 0 {
		f := (*free)[n-1]
		*free = (*free)[:n-1]
		return f
	}
	return &frame{powMW: make([]float64, powCap)}
}

// prrTable returns the certified PRR table for frameBytes, or nil for
// lengths no table serves (the analytic function decides those). cache is
// the caller's per-length table slice — the medium's on the serial path,
// the shard's on the sharded path, so the lazy growth is single-writer —
// and keeps the shared cache's sync.Map off the per-frame path.
func prrTable(frameBytes int, cache *[]*PRRTable) *PRRTable {
	prrT := *cache
	if frameBytes > 0 && frameBytes < len(prrT) {
		if tb := prrT[frameBytes]; tb != nil {
			return tb
		}
	}
	tb := PRRTableFor(frameBytes)
	if tb == nil {
		return nil
	}
	if frameBytes >= len(prrT) {
		grown := make([]*PRRTable, frameBytes+1)
		copy(grown, prrT)
		prrT = grown
	}
	prrT[frameBytes] = tb
	*cache = prrT
	return tb
}

// prrDecide takes the reception draw at sinrDB through tb (bit-identical to
// rng.Bernoulli(PRR(...)); see PRRTable.Decide), or through the analytic
// function when no table serves the length.
func prrDecide(sinrDB float64, frameBytes int, tb *PRRTable, rng *sim.Rand) bool {
	if tb == nil {
		return rng.Bernoulli(PRR(sinrDB, frameBytes))
	}
	return tb.Decide(sinrDB, rng)
}

// startTx puts a frame on the air for its sender. The serial path sweeps
// the receivers at once and finishes the frame at its end; the sharded
// path queues it for the next barrier, which hands both sweeps to the
// target shards one epoch later (see ShardExchange), and frees the sender
// at the end on its own wheel. Either completion event is scheduled before
// any caller-side completion at the same deadline, so on the serial path
// receivers see the frame before the sender's MAC reacts to its own
// completion (FIFO ordering at equal times).
func (m *Medium) startTx(r *Radio, data []byte) sim.Time {
	if r.transmitting {
		panic(fmt.Sprintf("phy: radio %d Transmit while transmitting", r.id))
	}
	clock, stats, st := m.local(r.id)
	now := clock.Now()
	if r.rx != nil {
		// Half duplex: turning around to transmit aborts the reception.
		r.rx = nil
		stats.DroppedTxWhileRx++
	}
	air := m.Airtime(len(data))
	r.transmitting = true
	if r.down {
		// A powered-off radio radiates nothing. The MAC never reaches this
		// path in practice (ChannelClear is false while down), but the
		// contract stays safe: the radio is occupied for the airtime and
		// no receiver is touched.
		clock.ScheduleArg(now+air, m.senderDoneFn, r)
		return air
	}
	stats.Transmissions++
	free := &m.free
	if st != nil {
		free = &st.free
	}
	f := getFrame(free, m.powCap)
	f.from, f.start, f.end, f.txPowMW = int32(r.id), now, now+air, r.txPowMW
	f.dst = anyRadio
	if dst, ok := packet.FrameDst(data); ok && dst != packet.Broadcast {
		f.dst = int32(dst)
	}
	if st != nil {
		f.data = append(f.data[:0], data...)
		st.outbox = append(st.outbox, f)
		clock.ScheduleArg(f.end, m.senderDoneFn, r)
		return air
	}
	f.data = data
	m.arrive(f, 0, len(m.candidates[r.id]), stats)
	clock.ScheduleArg(f.end, m.finishFn, f)
	return air
}

// finishTx ends a serial-path frame: the sender is free, every receiver
// resolves, and the frame returns to the pool.
func (m *Medium) finishTx(f *frame) {
	m.radios[f.from].transmitting = false
	m.resolve(f, 0, len(m.candidates[f.from]), m.clock.Now(), &m.Stats, &m.prrT)
	f.data = nil // drop the sender's buffer before pooling
	m.free = append(m.free, f)
}

// arrive makes frame f appear to the sender's candidates [lo, hi): each
// detectable signal joins its receiver's interference sum and either locks
// an idle receiver on, captures a busy one, or interferes with its
// reception. Fading is sampled at the emission instant f.start.
func (m *Medium) arrive(f *frame, lo, hi int, stats *MediumStats) {
	from := int(f.from)
	cands, slots := m.candidates[from], m.candSlots[from]
	for ci := lo; ci < hi; ci++ {
		j := int(cands[ci])
		pmw := f.txPowMW * m.ch.gainLinSlot(from, j, slots[ci], f.start)
		if pmw < m.detectMW {
			continue
		}
		f.powMW[ci] = pmw
		m.interfMW[j] += pmw
		rj := m.radios[j]
		switch {
		case rj.down:
			// Powered off: the energy still arrives at the antenna (and is
			// accounted as interference for symmetry with resolve), but the
			// radio cannot lock on.
		case rj.transmitting:
			// Busy transmitting; this signal is inaudible to j but was
			// recorded above as interference for others via f.powMW.
		case rj.rx != nil:
			if pmw > rj.rx.powerMW*m.captureLin && pmw >= m.sensMW {
				// Physical capture: the much stronger new signal steals the
				// receiver; the old frame is lost and keeps interfering.
				stats.CaptureSwitches++
				rj.lockOn(f, pmw, m.interfMW[j]-pmw)
			} else {
				rj.rx.curInterfMW += pmw
				if rj.rx.curInterfMW > rj.rx.maxInterfMW {
					rj.rx.maxInterfMW = rj.rx.curInterfMW
				}
			}
		default: // idle
			if pmw >= m.sensMW {
				rj.lockOn(f, pmw, m.interfMW[j]-pmw)
			}
		}
	}
}

// resolve ends frame f's airtime at candidates [lo, hi) at instant now:
// its power leaves each receiver's interference sum, and every receiver
// still locked on it takes the reception draw from its rxRng stream, with
// table caching in prrT.
//
// A receiver whose address filter drops the frame (overheard unicast and
// acks: most receptions in a dense network) resolves it through overhear,
// which needs only the outcome, counts it, and builds no RxInfo and makes
// no upcall. Every stream advances exactly as if the frame were delivered
// and dropped above.
func (m *Medium) resolve(f *frame, lo, hi int, now sim.Time, stats *MediumStats, prrT *[]*PRRTable) {
	cands := m.candidates[f.from]
	tb := prrTable(len(f.data), prrT)
	for ci := lo; ci < hi; ci++ {
		pmw := f.powMW[ci]
		if pmw == 0 {
			continue
		}
		f.powMW[ci] = 0
		j := int(cands[ci])
		m.interfMW[j] -= pmw
		if m.interfMW[j] < 0 {
			m.interfMW[j] = 0 // rounding drift from the incremental sum
		}
		rj := m.radios[j]
		rx := rj.rx
		if rx == nil {
			continue
		}
		if rx.f != f {
			// This frame was interference for j's ongoing reception.
			rx.curInterfMW -= pmw
			if rx.curInterfMW < 0 {
				rx.curInterfMW = 0
			}
			continue
		}
		rj.rx = nil
		staticMW, excDB := m.ch.noiseParts(j, now)
		rng := m.rxRng[j]
		// Fast per-packet variation (multipath ISI): one draw decides both
		// the frame's fate and, if it survives, the quality it reports —
		// so received packets are biased toward good instants.
		var jitter float64
		if sigma := m.ch.PacketJitterSigmaDB(); sigma > 0 {
			jitter = rng.Normal(0, sigma)
		}
		interf := float64(m.rp.InterferenceFactor * rx.maxInterfMW)
		if f.dst != anyRadio && rj.addr != anyRadio && f.dst != rj.addr {
			switch ok, collision := overhear(rx, staticMW, excDB, interf, jitter, tb, len(f.data), rng); {
			case ok:
				stats.Delivered++
				rng.NormFloat64() // the LQI synthesis draw
			case collision:
				stats.DroppedCollision++
			default:
				stats.DroppedBER++
			}
			continue
		}
		noise := noiseMW(staticMW, excDB)
		sinrDB := LinearToDB(rx.powerMW/(noise+interf)) + jitter
		ok := prrDecide(sinrDB, len(f.data), tb, rng)
		switch {
		case !ok && rx.maxInterfMW > noise*0.1:
			stats.DroppedCollision++
		case !ok:
			stats.DroppedBER++
		default:
			lqi, white := m.lqip.Synthesize(sinrDB, rng)
			stats.Delivered++
			if rj.recv != nil {
				rj.recv(f.data, RxInfo{At: now, SNRdB: sinrDB, LQI: lqi, White: white})
			}
		}
	}
}

// overhear takes the reception decision for a frame the receiver's address
// filter drops, bit-identical to the exact path in outcome and in every
// draw, and reports whether it was delivered and, if not, whether the loss
// counts as a collision. Only the outcome matters here, so it decides from
// certified bounds when they suffice and computes no transcendental:
//
//   - linearBounds brackets the noise excursion's DBToLinear, and the
//     bracket carries through the SINR's float operations, each monotone
//     in the noise, to an SINR interval in dB (dbLowerBound, dbUpperBound,
//     then the jitter);
//   - an interval at or above the table's certainDB delivers without a
//     draw, as Decide does there;
//   - an interval inside the certainly-sub-one cells takes Decide's one
//     draw u and settles it against the interval's extreme cell bounds;
//   - a u between those, or any other interval (or no table), falls back
//     to the exact noise, LinearToDB and PRR, reusing the u already drawn;
//   - a loss is a collision when the interference exceeds a tenth of the
//     noise, which the noise bracket decides unless it straddles it.
func overhear(rx *reception, staticMW, excDB, interf, jitter float64, tb *PRRTable, frameBytes int, rng *sim.Rand) (ok, collision bool) {
	nLo, nHi := staticMW, staticMW
	if excDB != 0 {
		eLo, eHi := linearBounds(excDB)
		nLo, nHi = float64(staticMW*eLo), float64(staticMW*eHi)
	}
	u := -1.0 // the reception draw, once taken
	settled := false
	if tb != nil {
		dbLo := float64(dbLowerBound(rx.powerMW/(nHi+interf)) + jitter)
		if dbLo >= tb.certainDB {
			return true, false
		}
		dbHi := float64(dbUpperBound(rx.powerMW/(nLo+interf)) + jitter)
		if iLo, iHi, in := tb.subCells(dbLo, dbHi); in {
			u = rng.Float64()
			pLo, _ := tb.cellBounds(iLo)
			_, pHi := tb.cellBounds(iHi)
			ok, settled = u < pLo, u < pLo || u >= pHi
		}
	}
	noise := -1.0 // the exact noise power, once computed
	if !settled {
		noise = noiseMW(staticMW, excDB)
		sinrDB := LinearToDB(rx.powerMW/(noise+interf)) + jitter
		if u < 0 {
			ok = prrDecide(sinrDB, frameBytes, tb, rng)
		} else {
			ok = tb.settle(cellOf(sinrDB), sinrDB, u)
		}
	}
	if ok || rx.maxInterfMW == 0 {
		return ok, false
	}
	if noise < 0 {
		switch {
		case rx.maxInterfMW > float64(nHi*0.1):
			return false, true
		case rx.maxInterfMW <= float64(nLo*0.1):
			return false, false
		}
		noise = noiseMW(staticMW, excDB)
	}
	return false, rx.maxInterfMW > noise*0.1
}

// Radio is one node's transceiver. MAC layers drive it through Transmit and
// ChannelClear and receive frames via the handler installed with OnReceive.
type Radio struct {
	m            *Medium
	id           int
	addr         int32 // link-layer address filter; anyRadio takes every frame
	txPowerDBm   float64
	txPowMW      float64 // txPowerDBm converted once at SetTxPower
	transmitting bool
	down         bool
	rx           *reception
	rxBuf        reception // storage reused across receptions (rx points here)
	recv         func(data []byte, info RxInfo)
}

// lockOn points the radio's receiver at frame f, reusing the radio-owned
// reception buffer (the previous reception, if any, is dead by the time
// lockOn runs).
func (r *Radio) lockOn(f *frame, pmw, interf float64) {
	r.rxBuf = reception{f: f, powerMW: pmw, curInterfMW: interf, maxInterfMW: interf}
	r.rx = &r.rxBuf
}

// ID returns the node index of this radio.
func (r *Radio) ID() int { return r.id }

// OnReceive installs the frame delivery handler. The data slice is shared
// with the sender and must be treated as immutable.
func (r *Radio) OnReceive(fn func(data []byte, info RxInfo)) { r.recv = fn }

// anyRadio is the address of a promiscuous radio, and the destination of a
// frame every radio takes (broadcasts, and frames too short to name one).
const anyRadio = -1

// SetAddr installs the receiver's link-layer address filter: a frame whose
// destination (packet.FrameDst) is neither addr nor broadcast still
// occupies, interferes with and is drawn for at this radio, and counts in
// MediumStats, but never reaches the OnReceive handler. A radio without an
// address is promiscuous.
func (r *Radio) SetAddr(addr packet.Addr) { r.addr = int32(addr) }

// SetTxPower sets the transmit power in dBm for subsequent transmissions.
func (r *Radio) SetTxPower(dbm float64) {
	r.txPowerDBm = dbm
	r.txPowMW = DBmToMilliwatts(dbm)
}

// TxPower returns the configured transmit power in dBm.
func (r *Radio) TxPower() float64 { return r.txPowerDBm }

// SetDown powers the radio off (true) or back on (false). A down radio is
// deaf and mute: it radiates nothing, locks onto nothing, and reports a
// busy channel so its MAC's CSMA attempts fail without touching the air.
// From the network's perspective the node is dead — neighbors stop hearing
// its beacons and acks and age it out — which is how scenario dynamics
// script node death and reboot. Going down aborts any in-progress
// reception (counted in DroppedRadioDown); a frame already mid-flight
// from this radio completes (the sub-millisecond truncation is below the
// model's resolution).
func (r *Radio) SetDown(down bool) {
	if r.down == down {
		return
	}
	r.down = down
	if down && r.rx != nil {
		r.rx = nil
		_, stats, _ := r.m.local(r.id)
		stats.DroppedRadioDown++
	}
}

// Down reports whether the radio is powered off.
func (r *Radio) Down() bool { return r.down }

// Transmitting reports whether the radio is sending a frame.
func (r *Radio) Transmitting() bool { return r.transmitting }

// Receiving reports whether the radio is locked onto an incoming frame.
func (r *Radio) Receiving() bool { return r.rx != nil }

// ChannelClear performs a CC2420-style energy-detect clear channel
// assessment: the channel is clear when total received energy (noise plus
// all active signals) is below the CCA threshold and the radio itself is
// neither transmitting nor locked onto a frame. The signal energy comes
// from the incrementally-maintained per-receiver interference sum (a
// radio's own transmissions never contribute: a node is not among its own
// candidates), and the comparison happens in the linear domain.
func (r *Radio) ChannelClear() bool {
	if r.down || r.transmitting || r.rx != nil {
		return false
	}
	clock, _, _ := r.m.local(r.id)
	return r.m.ch.NoiseMW(r.id, clock.Now())+r.m.interfMW[r.id] < r.m.ccaMW
}

// Transmit puts data on the air immediately and returns its airtime. The
// caller (the MAC) schedules its own completion handling after the returned
// duration; receivers get the frame first at that instant.
func (r *Radio) Transmit(data []byte) sim.Time {
	return r.m.startTx(r, data)
}

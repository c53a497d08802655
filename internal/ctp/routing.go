package ctp

import (
	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
)

// onBeaconFrame runs a received routing beacon through the link estimator
// (layer 2.5: sequence accounting, white/compare admission) and then
// processes the inner routing frame. The LE envelope decodes into a
// node-owned scratch frame — nothing downstream retains it.
func (n *Node) onBeaconFrame(f *packet.Frame, info phy.RxInfo) {
	le := &n.leBuf
	if err := packet.DecodeLEFrameInto(le, f.Payload); err != nil {
		return
	}
	meta := core.RxMeta{White: info.White, LQI: info.LQI, SNRdB: info.SNRdB}
	netPayload, ok := n.est.OnBeacon(f.Src, le, meta, n.clock.Now())
	if !ok || netPayload == nil {
		return
	}
	cb, err := packet.DecodeCTPBeacon(netPayload)
	if err != nil {
		return
	}
	n.handleBeacon(f.Src, cb)
}

func (n *Node) handleBeacon(src packet.Addr, cb *packet.CTPBeacon) {
	cost := noCost
	if cb.ETX != invalidETX {
		cost = float64(cb.ETX) / 10
	}
	e := n.routeFor(src)
	e.cost, e.parent, e.lastHeard = cost, cb.Parent, n.clock.Now()
	// A pull-flagged beacon asks route-holding neighbors to beacon soon.
	if cb.Options&packet.CTPOptPull != 0 && n.hasRoute() {
		n.trickleReset()
	}
	n.updateRoute()
}

func (n *Node) hasRoute() bool { return n.isRoot || n.parent != packet.None }

// routeFor returns the route slot for a, growing the dense table and
// registering the address on first contact. append grows the table
// geometrically, so a node that hears ever higher addresses copies it
// O(log n) times, not once per address.
func (n *Node) routeFor(a packet.Addr) *routeEntry {
	if int(a) >= len(n.routes) {
		n.routes = append(n.routes, make([]routeEntry, int(a)+1-len(n.routes))...)
	}
	e := &n.routes[a]
	e.known = true
	return e
}

// route returns the route slot for a, or nil if we never heard it beacon.
func (n *Node) route(a packet.Addr) *routeEntry {
	if int(a) < len(n.routes) && n.routes[a].known {
		return &n.routes[a]
	}
	return nil
}

// totalCost returns the path ETX through neighbor a: its advertised cost
// plus our link's estimated ETX. ok is false when either half is unknown.
func (n *Node) totalCost(a packet.Addr) (float64, bool) {
	r := n.route(a)
	if r == nil || r.cost == noCost {
		return 0, false
	}
	etx, ok := n.est.Quality(a)
	if !ok {
		return 0, false
	}
	return r.cost + etx, true
}

// updateRoute runs CTP's parent selection: minimize advertised cost + link
// ETX over estimated neighbors, with hysteresis (ParentSwitchThreshold)
// protecting the incumbent, and never choosing a neighbor that routes
// through us. The chosen parent is pinned in the estimator's table.
func (n *Node) updateRoute() {
	if n.isRoot {
		return
	}
	// Candidates need both an advertised route and a link estimate, so the
	// estimator's table (≤ TableSize entries) — not the full ever-heard
	// neighbor list — bounds the scan. The winner minimizes (total, addr)
	// lexicographically, which is iteration-order independent, so walking
	// the table yields exactly the neighbor-list result.
	best := packet.None
	bestTotal := noCost
	for _, e := range n.est.Table().Entries() {
		etx, ok := e.ETX()
		if !ok {
			continue
		}
		a := e.Addr
		r := n.route(a)
		if r == nil || r.cost == noCost || r.parent == n.self {
			continue
		}
		total := r.cost + etx
		if total < bestTotal || (total == bestTotal && a < best) {
			best, bestTotal = a, total
		}
	}
	curTotal, curOK := noCost, false
	if n.parent != packet.None {
		curTotal, curOK = n.totalCost(n.parent)
	}

	switch {
	case best == packet.None:
		if n.parent != packet.None {
			old := n.parent
			n.est.Unpin(n.parent)
			n.parent = packet.None
			n.cost = noCost
			n.Stats.ParentChanges++
			n.probes.ParentChange(n.self, old, packet.None, 0)
			n.trickleReset() // lost the route: ask for help (pull)
		}
	case !curOK || bestTotal+n.cfg.ParentSwitchThreshold < curTotal:
		if best != n.parent {
			old := n.parent
			if n.parent != packet.None {
				n.est.Unpin(n.parent)
			}
			hadRoute := n.parent != packet.None
			n.parent = best
			n.est.Pin(best)
			n.Stats.ParentChanges++
			n.cost = bestTotal
			n.probes.ParentChange(n.self, old, best, bestTotal)
			if !hadRoute || curOK {
				n.trickleReset()
			}
			n.pump()
		} else {
			n.cost = bestTotal
		}
	default:
		n.cost = curTotal
	}
}

// trickleReset drops the beacon interval to the minimum and reschedules.
func (n *Node) trickleReset() {
	n.interval = n.cfg.BeaconMin
	n.Stats.TrickleResets++
	n.scheduleBeacon()
}

func (n *Node) scheduleBeacon() {
	// One persistent timer re-armed per cycle (sim.Timer.Reschedule):
	// identical semantics to the cancel-and-After idiom, no allocation.
	delay := n.rng.UniformTime(n.interval/2, n.interval)
	n.beacon.RescheduleAfter(delay)
}

func (n *Node) beaconFire() {
	n.sendBeacon()
	if n.interval < n.cfg.BeaconMax {
		n.interval *= 2
		if n.interval > n.cfg.BeaconMax {
			n.interval = n.cfg.BeaconMax
		}
	}
	n.scheduleBeacon()
}

// sendBeacon emits one routing beacon through the estimator's LE envelope.
// If the MAC is mid-transmission the beacon is skipped (the Trickle timer
// will come around again) — beacons are advisory traffic.
func (n *Node) sendBeacon() {
	if n.m.Busy() {
		return
	}
	n.est.Age(n.interval.Scale(n.cfg.AgeFactor), n.clock.Now())
	cb := packet.CTPBeacon{Parent: n.parent, ETX: n.costFixed()}
	if !n.hasRoute() {
		cb.Options |= packet.CTPOptPull
	}
	// Everything below runs in node-owned scratch: the beacon and LE
	// envelope encode into reusable buffers, the estimator's MakeBeacon
	// returns its own scratch frame, and the MAC copies what it needs
	// before Send returns.
	n.cbBuf = cb.AppendTo(n.cbBuf[:0])
	le := n.est.MakeBeacon(n.cbBuf)
	var err error
	n.encBuf, err = le.AppendTo(n.encBuf[:0])
	if err != nil {
		panic("ctp: LE encode: " + err.Error())
	}
	n.txFrame = packet.Frame{Type: packet.TypeBeacon, Src: n.self, Dst: packet.Broadcast, Payload: n.encBuf}
	if n.m.Send(&n.txFrame, n.beaconDone) == nil {
		n.Stats.BeaconsSent++
		n.probes.Beacon(n.self, cb.ETX, cb.Options&packet.CTPOptPull != 0)
	}
}

// costFixed converts the node's cost to the 1/10-ETX wire representation.
func (n *Node) costFixed() uint16 {
	if n.cost == noCost {
		return invalidETX
	}
	v := float64(n.cost * 10)
	if v >= invalidETX {
		return invalidETX
	}
	return uint16(v + 0.5)
}

// CompareBit implements core.Comparer (§3.1): it reports whether the
// routing frame in netPayload, heard from src, advertises a route better
// than the route provided by one or more entries in the link table — i.e.
// whether src is worth a table slot. A node with no route says yes to any
// routed sender.
func (n *Node) CompareBit(src packet.Addr, netPayload []byte) bool {
	cb, err := packet.DecodeCTPBeacon(netPayload)
	if err != nil {
		return false
	}
	if cb.ETX == invalidETX || cb.Parent == n.self {
		return false
	}
	senderCost := float64(cb.ETX) / 10
	if !n.hasRoute() {
		return true
	}
	// Optimistically the sender is one perfect hop away. The bit is set
	// only if that beats the path through some current table entry with a
	// computable route by at least the parent-switch margin — a weaker
	// newcomer could never change routing, so evicting for it would be
	// pure table churn.
	optimistic := senderCost + 1 + n.cfg.ParentSwitchThreshold
	for _, e := range n.est.Table().Entries() {
		a := e.Addr
		if a == n.parent {
			continue
		}
		// totalCost(a) with the table entry already in hand: identical
		// result, one table lookup fewer on the simulator's hottest scan.
		etx, ok := e.ETX()
		if !ok {
			continue
		}
		r := n.route(a)
		if r == nil || r.cost == noCost {
			continue
		}
		if optimistic < r.cost+etx {
			return true
		}
	}
	return false
}

package core

import (
	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Entry is one candidate link in the estimator's table. Fields are managed
// by the owning estimator; external layers interact only through the pin
// bit and the published ETX. The field groups below are the union the
// estimator kinds need: every kind publishes through etx/etxInit; the
// beacon-counting kinds (4bit, wmewma and pdr) use the sequence window and
// the footer reverse quality, and only the 4bit kind the unicast stream;
// the lqi kind keeps its moving average in prrEwma (on the raw LQI scale
// instead of a reception ratio — it advertises no footers, so the value
// never leaves the node) and leaves the other groups zero.
type Entry struct {
	Addr   packet.Addr
	Pinned bool // the pin bit: network layer forbids eviction

	// Inbound beacon stream (sequence-number based reception counting).
	seqInit   bool
	lastSeq   uint16
	rcvd      int
	missed    int
	prrInit   bool
	prrEwma   float64
	lastHeard sim.Time

	// Reverse (outbound) quality learned from the neighbor's beacon
	// footers. Only the broadcast-bidirectional variants need it.
	outQuality float64
	outValid   bool

	// Unicast (data) stream, driven by the ack bit.
	uTotal     int
	uAcked     int
	failsSince int

	// Hybrid ETX (the outer EWMA of Figure 5).
	etxInit bool
	etx     float64

	// windows counts completed estimation windows (samples, for the LQI
	// kind); the eviction policy uses it to distinguish warming-up entries
	// from estimate-less squatters.
	windows int
}

// ETX returns the current hybrid estimate and whether one exists yet.
func (e *Entry) ETX() (float64, bool) { return e.etx, e.etxInit }

// InboundQuality returns the EWMA beacon reception ratio from the neighbor
// (the value advertised in beacon footers) and whether it is initialized.
func (e *Entry) InboundQuality() (float64, bool) { return e.prrEwma, e.prrInit }

// LastHeard returns the time the neighbor was last received from.
func (e *Entry) LastHeard() sim.Time { return e.lastHeard }

// Table is the fixed-capacity link table with pin-aware random eviction.
// The zero Table is unusable; use newTable.
//
// Lookups are the hottest operation in the whole simulator (parent
// selection queries the table for every routing candidate on every beacon
// and every data transmission), so the table keeps a dense address→slot
// index beside the ordered entry list: Find is O(1), while insertion order
// — which the footer round-robin, eviction tie-breaking and random-victim
// draws all observe — is preserved exactly by the entry list.
type Table struct {
	cap     int
	entries []*Entry
	index   []int32 // addr → slot+1 in entries; 0 = absent
	free    []*Entry
	slab    []Entry // backing storage; one allocation for all entries ever
	scratch []int   // victim-candidate buffer for EvictRandomUnpinned
}

func newTable(capacity int) *Table {
	return &Table{cap: capacity}
}

// Cap returns the table capacity.
func (t *Table) Cap() int { return t.cap }

// Len returns the number of occupied slots.
func (t *Table) Len() int { return len(t.entries) }

// Find returns the entry for addr, or nil.
func (t *Table) Find(addr packet.Addr) *Entry {
	if int(addr) < len(t.index) {
		if p := t.index[addr]; p > 0 {
			return t.entries[p-1]
		}
	}
	return nil
}

func (t *Table) setIndex(addr packet.Addr, slot int) {
	if int(addr) >= len(t.index) {
		grown := make([]int32, int(addr)+1)
		copy(grown, t.index)
		t.index = grown
	}
	t.index[addr] = int32(slot + 1)
}

// Insert adds a fresh entry for addr if there is room, returning it; it
// returns nil when the table is full. Inserting an existing address returns
// the existing entry.
func (t *Table) Insert(addr packet.Addr) *Entry {
	if e := t.Find(addr); e != nil {
		return e
	}
	if len(t.entries) >= t.cap {
		return nil
	}
	var e *Entry
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free = t.free[:n-1]
		*e = Entry{Addr: addr}
	} else {
		// Entries come from a lazily-built slab: at most cap distinct
		// Entry objects ever exist (evicted ones recycle through free),
		// so the slab never reallocates and the pointers stay stable.
		if t.slab == nil {
			t.slab = make([]Entry, 0, t.cap)
		}
		t.slab = append(t.slab, Entry{Addr: addr})
		e = &t.slab[len(t.slab)-1]
	}
	t.entries = append(t.entries, e)
	t.setIndex(addr, len(t.entries)-1)
	return e
}

// removeAt splices out the entry at slot i, maintaining the index for every
// shifted entry and recycling the removed Entry.
func (t *Table) removeAt(i int) {
	e := t.entries[i]
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	for j := i; j < len(t.entries); j++ {
		t.index[t.entries[j].Addr] = int32(j + 1)
	}
	t.index[e.Addr] = 0
	t.free = append(t.free, e)
}

// EvictRandomUnpinned removes one uniformly-chosen unpinned entry — the
// replacement policy of §3.3 — and reports whether a slot was freed.
func (t *Table) EvictRandomUnpinned(rng *sim.Rand) bool {
	_, ok := t.evictRandomUnpinned(rng)
	return ok
}

// evictRandomUnpinned is EvictRandomUnpinned naming its victim, for callers
// that report the eviction (the probe bus's table events).
func (t *Table) evictRandomUnpinned(rng *sim.Rand) (packet.Addr, bool) {
	victims := t.scratch[:0]
	for i, e := range t.entries {
		if !e.Pinned {
			victims = append(victims, i)
		}
	}
	t.scratch = victims[:0]
	if len(victims) == 0 {
		return 0, false
	}
	i := victims[rng.Intn(len(victims))]
	victim := t.entries[i].Addr
	t.removeAt(i)
	return victim, true
}

// Remove deletes addr from the table (regardless of pinning; the network
// layer unpins before asking). It reports whether the entry existed.
func (t *Table) Remove(addr packet.Addr) bool {
	if int(addr) < len(t.index) {
		if p := t.index[addr]; p > 0 {
			t.removeAt(int(p - 1))
			return true
		}
	}
	return false
}

// Pin sets the pin bit on addr's entry, reporting success.
func (t *Table) Pin(addr packet.Addr) bool {
	if e := t.Find(addr); e != nil {
		e.Pinned = true
		return true
	}
	return false
}

// Unpin clears the pin bit on addr's entry, reporting success.
func (t *Table) Unpin(addr packet.Addr) bool {
	if e := t.Find(addr); e != nil {
		e.Pinned = false
		return true
	}
	return false
}

// Entries returns the live entries in insertion order. The slice is shared;
// callers must not mutate it.
func (t *Table) Entries() []*Entry { return t.entries }

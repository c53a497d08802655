// Package topo generates node placements for the simulated testbeds and
// exposes the per-pair distance and extra attenuation the channel model
// consumes.
//
// Two named generators stand in for the paper's physical testbeds (see
// DESIGN.md §1): Mirage, an 85-node single-floor office in the style of the
// Intel Mirage MicaZ testbed, and TutorNet, a 94-node two-floor deployment
// in the style of USC's TelosB testbed. Both place the collection root in
// the bottom-left corner, as in the paper's Figure 2.
package topo

import (
	"fmt"
	"math"

	"fourbit/internal/sim"
)

// Point is a node position in meters. Floor is the building storey; the
// vertical separation and slab attenuation are applied by Build.
type Point struct {
	X, Y  float64
	Floor int
}

// Topology is a set of node positions plus per-pair static obstruction loss.
type Topology struct {
	Name      string
	Positions []Point
	Root      int // collection root (basestation) index
	// FloorLossDB is the extra attenuation per floor slab crossed.
	FloorLossDB float64
	// FloorHeightM is the vertical separation between storeys.
	FloorHeightM float64
	// ClutterDB adds U[0, ClutterDB] of obstruction loss per node pair
	// (cubicle walls, furniture, people), drawn deterministically from
	// ClutterSeed. Cluttered buildings have many marginal links — the
	// regime where the paper reports TutorNet's larger 4B gains.
	ClutterDB   float64
	ClutterSeed uint64
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Positions) }

// Distance returns the 3-D distance in meters between nodes i and j.
func (t *Topology) Distance(i, j int) float64 {
	a, b := t.Positions[i], t.Positions[j]
	dz := float64(a.Floor-b.Floor) * t.FloorHeightM
	// Each product is rounded explicitly so no architecture fuses it into a
	// multiply-add: the distance feeds every path loss, so every golden.
	return math.Sqrt(float64((a.X-b.X)*(a.X-b.X)) + float64((a.Y-b.Y)*(a.Y-b.Y)) + float64(dz*dz))
}

// Coord returns node i's position in meters, with the vertical coordinate
// derived from the floor index — the flat view the channel model's spatial
// bucketing indexes without materializing pairwise matrices.
func (t *Topology) Coord(i int) (x, y, z float64) {
	p := t.Positions[i]
	return p.X, p.Y, float64(p.Floor) * t.FloorHeightM
}

// ExtraLossDB returns the static obstruction loss between i and j — floor
// slabs plus deterministic clutter. It is never negative: obstructions only ever
// attenuate, a property the channel model's audibility culling relies on.
func (t *Topology) ExtraLossDB(i, j int) float64 {
	floors := t.Positions[i].Floor - t.Positions[j].Floor
	if floors < 0 {
		floors = -floors
	}
	return float64(float64(floors)*t.FloorLossDB) + t.clutter(i, j)
}

// clutter returns the pair's deterministic obstruction loss in [0, ClutterDB].
func (t *Topology) clutter(i, j int) float64 {
	if t.ClutterDB == 0 {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return t.ClutterDB * float64(pairHash(t.ClutterSeed, uint64(i), uint64(j))%10000) / 9999
}

// FNV-1a's 64-bit offset basis and prime, as hash/fnv uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// pairHash is the 64-bit FNV-1a hash of seed, i and j written big-endian,
// 24 bytes in all: hash/fnv's New64a over those bytes, without its
// per-call hasher and buffer.
func pairHash(seed, i, j uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range [3]uint64{seed, i, j} {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= (w >> uint(shift)) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// Line places n nodes on a line with the given spacing; node 0 is the root.
func Line(n int, spacing float64) *Topology {
	t := &Topology{Name: fmt.Sprintf("line-%d", n)}
	for i := 0; i < n; i++ {
		t.Positions = append(t.Positions, Point{X: float64(i) * spacing})
	}
	return t
}

// Grid places rows×cols nodes with the given spacing; node 0 (a corner) is
// the root.
func Grid(rows, cols int, spacing float64) *Topology {
	t := &Topology{Name: fmt.Sprintf("grid-%dx%d", rows, cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Positions = append(t.Positions, Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return t
}

// UniformRandom scatters n nodes uniformly over a w×h area. The node
// closest to the bottom-left corner becomes the root.
func UniformRandom(n int, w, h float64, seed uint64) *Topology {
	rng := sim.NewRand(seed)
	t := &Topology{Name: fmt.Sprintf("uniform-%d", n)}
	for i := 0; i < n; i++ {
		t.Positions = append(t.Positions, Point{X: rng.Uniform(0, w), Y: rng.Uniform(0, h)})
	}
	t.Root = t.closestTo(0, 0)
	return t
}

func (t *Topology) closestTo(x, y float64) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range t.Positions {
		d := float64((p.X-x)*(p.X-x)) + float64((p.Y-y)*(p.Y-y)) + float64(float64(p.Floor*p.Floor)*1e6)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Mirage generates the 85-node single-floor office testbed used by the
// Figure 2, 6, 7, 8 experiments. Nodes cluster in office bays over a
// 48×28 m floor; the root (node 0) sits in the bottom-left corner. At
// 0 dBm the network is 1–3 hops deep, growing to ~4+ hops at −20 dBm,
// matching the depth ranges the paper reports.
func Mirage(seed uint64) *Topology {
	const n = 85
	rng := sim.NewRand(seed ^ 0x4d697261) // "Mira"
	t := &Topology{Name: "mirage-85", ClutterDB: 4, ClutterSeed: seed}
	t.Positions = append(t.Positions, Point{X: 2, Y: 2}) // root, bottom-left
	// Office bays on an 8×4 grid spanning the floor.
	const baysX, baysY = 8, 4
	for i := 1; i < n; i++ {
		bay := (i - 1) % (baysX * baysY)
		bx := 5 + float64(float64(bay%baysX)*5.6)
		by := 4.5 + float64(float64(bay/baysX)*6.4)
		t.Positions = append(t.Positions, Point{
			X: clamp(bx+rng.Normal(0, 1.6), 0, 48),
			Y: clamp(by+rng.Normal(0, 1.6), 0, 28),
		})
	}
	return t
}

// TutorNet generates the 94-node two-floor testbed used by the Figure 3 and
// TutorNet headline experiments. 47 nodes per floor over 42×24 m with a
// 14 dB slab; the larger mean attenuation yields longer paths and more
// marginal links than Mirage, which is where the paper observed the larger
// (44%) cost advantage for 4B.
func TutorNet(seed uint64) *Topology {
	const n = 94
	rng := sim.NewRand(seed ^ 0x5475746f) // "Tuto"
	t := &Topology{
		Name:         "tutornet-94",
		FloorLossDB:  14,
		FloorHeightM: 4,
		ClutterDB:    16,
		ClutterSeed:  seed,
	}
	t.Positions = append(t.Positions, Point{X: 2, Y: 2}) // root, floor 0
	const baysX, baysY = 7, 3
	for i := 1; i < n; i++ {
		floor := 0
		if i >= n/2 {
			floor = 1
		}
		bay := (i - 1) % (baysX * baysY)
		bx := 4 + float64(float64(bay%baysX)*5.5)
		by := 4 + float64(float64(bay/baysX)*7.5)
		t.Positions = append(t.Positions, Point{
			X:     clamp(bx+rng.Normal(0, 2.0), 0, 42),
			Y:     clamp(by+rng.Normal(0, 2.0), 0, 24),
			Floor: floor,
		})
	}
	return t
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

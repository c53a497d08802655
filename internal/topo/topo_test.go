package topo

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestLineDistances(t *testing.T) {
	l := Line(5, 10)
	if l.N() != 5 {
		t.Fatalf("N = %d", l.N())
	}
	if d := l.Distance(0, 4); d != 40 {
		t.Fatalf("Distance(0,4) = %v, want 40", d)
	}
	if l.Root != 0 {
		t.Fatal("line root should be node 0")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4, 5)
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	if d := g.Distance(0, 3); d != 15 {
		t.Fatalf("row distance = %v, want 15", d)
	}
	if d := g.Distance(0, 11); math.Abs(d-math.Sqrt(15*15+10*10)) > 1e-9 {
		t.Fatalf("diagonal = %v", d)
	}
}

// TestMatricesSymmetricZeroDiagonal pins the pairwise distance and
// extra-loss matrices the per-pair accessors define: both symmetric, the
// distance zero on the diagonal.
func TestMatricesSymmetricZeroDiagonal(t *testing.T) {
	for _, tp := range []*Topology{Mirage(1), TutorNet(1), Grid(4, 4, 6), UniformRandom(30, 50, 30, 3)} {
		n := tp.N()
		for i := 0; i < n; i++ {
			if tp.Distance(i, i) != 0 {
				t.Fatalf("%s: nonzero diagonal at %d", tp.Name, i)
			}
			for j := 0; j < n; j++ {
				if tp.Distance(i, j) != tp.Distance(j, i) || tp.ExtraLossDB(i, j) != tp.ExtraLossDB(j, i) {
					t.Fatalf("%s: asymmetric at (%d,%d)", tp.Name, i, j)
				}
			}
		}
	}
}

func TestMirageShape(t *testing.T) {
	m := Mirage(7)
	if m.N() != 85 {
		t.Fatalf("Mirage has %d nodes, want 85", m.N())
	}
	if m.Root != 0 {
		t.Fatal("root must be node 0")
	}
	r := m.Positions[0]
	if r.X > 5 || r.Y > 5 {
		t.Fatalf("root not in bottom-left corner: %+v", r)
	}
	for i, p := range m.Positions {
		if p.X < 0 || p.X > 48 || p.Y < 0 || p.Y > 28 {
			t.Fatalf("node %d out of floor bounds: %+v", i, p)
		}
		if p.Floor != 0 {
			t.Fatalf("Mirage node %d on floor %d", i, p.Floor)
		}
	}
}

func TestMirageDeterministicPerSeed(t *testing.T) {
	a, b := Mirage(5), Mirage(5)
	if !reflect.DeepEqual(a.Positions, b.Positions) {
		t.Fatal("same seed produced different Mirage layouts")
	}
	c := Mirage(6)
	if reflect.DeepEqual(a.Positions, c.Positions) {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestTutorNetShape(t *testing.T) {
	tn := TutorNet(7)
	if tn.N() != 94 {
		t.Fatalf("TutorNet has %d nodes, want 94", tn.N())
	}
	floors := map[int]int{}
	for _, p := range tn.Positions {
		floors[p.Floor]++
	}
	if len(floors) != 2 {
		t.Fatalf("TutorNet floors = %v, want 2 storeys", floors)
	}
	if tn.FloorLossDB <= 0 || tn.FloorHeightM <= 0 {
		t.Fatal("TutorNet must attenuate between floors")
	}
}

func TestTutorNetFloorLossInMatrix(t *testing.T) {
	tn := TutorNet(8)
	// Same-floor pairs carry only clutter (0..ClutterDB); cross-floor
	// pairs carry the slab loss on top.
	for i := 1; i < tn.N(); i++ {
		loss := tn.ExtraLossDB(0, i)
		if tn.Positions[i].Floor == tn.Positions[0].Floor {
			if loss < 0 || loss > tn.ClutterDB {
				t.Fatalf("same-floor loss to %d = %v, want within [0, %v]", i, loss, tn.ClutterDB)
			}
		} else if loss < tn.FloorLossDB || loss > tn.FloorLossDB+tn.ClutterDB {
			t.Fatalf("cross-floor loss to %d = %v, want slab %v + clutter", i, loss, tn.FloorLossDB)
		}
	}
}

func TestClutterDeterministicAndBounded(t *testing.T) {
	a, b := TutorNet(9), TutorNet(9)
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.ExtraLossDB(i, j) != b.ExtraLossDB(i, j) {
				t.Fatalf("clutter differs across identical builds at (%d,%d)", i, j)
			}
		}
	}
	c := TutorNet(10)
	same := true
	for i := 0; i < a.N() && same; i++ {
		for j := 0; j < a.N(); j++ {
			if a.ExtraLossDB(i, j) != c.ExtraLossDB(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical clutter")
	}
}

func TestCrossFloorDistanceIncludesHeight(t *testing.T) {
	tn := &Topology{
		FloorHeightM: 4,
		Positions:    []Point{{X: 0, Y: 0, Floor: 0}, {X: 0, Y: 0, Floor: 1}},
	}
	if d := tn.Distance(0, 1); d != 4 {
		t.Fatalf("cross-floor distance = %v, want 4", d)
	}
}

func TestUniformRandomRootNearOrigin(t *testing.T) {
	u := UniformRandom(50, 60, 40, 9)
	if u.N() != 50 {
		t.Fatal("wrong node count")
	}
	r := u.Positions[u.Root]
	for i, p := range u.Positions {
		if i == u.Root {
			continue
		}
		if p.X*p.X+p.Y*p.Y < r.X*r.X+r.Y*r.Y {
			t.Fatalf("node %d closer to origin than root", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := TutorNet(3)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json's own field names are the format cmd/topogen writes.
	if want := `{"Name":"tutornet-94","Positions":[{"X":2,"Y":2,"Floor":0},`; !strings.HasPrefix(string(data), want) {
		t.Fatalf("JSON = %.60s..., want prefix %s", data, want)
	}
	var got Topology
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, got) {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestMirageDensitySupportsMultihop(t *testing.T) {
	// Sanity-check the geometry against the radio range: at 0 dBm (~40 m
	// reliable range) the far corner must be out of direct reach of the
	// root (multi-hop needed), while every node has a neighbor well within
	// reliable range (network connected even at reduced power).
	m := Mirage(1)
	const reliableRange = 40.0
	far := 0.0
	for i := 1; i < m.N(); i++ {
		if d := m.Distance(0, i); d > far {
			far = d
		}
		nearest := math.Inf(1)
		for j := 0; j < m.N(); j++ {
			if j == i {
				continue
			}
			if d := m.Distance(i, j); d < nearest {
				nearest = d
			}
		}
		if nearest > reliableRange/3 {
			t.Fatalf("node %d isolated: nearest neighbor %.1f m", i, nearest)
		}
	}
	if far < reliableRange*1.2 {
		t.Fatalf("network diameter %.1f m too small for multihop", far)
	}
}

// fnvPairHash is the clutter hash over hash/fnv: New64a over seed, i and
// j written big-endian. pairHash must match it bit for bit.
func fnvPairHash(seed, i, j uint64) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], seed)
	binary.BigEndian.PutUint64(buf[8:], i)
	binary.BigEndian.PutUint64(buf[16:], j)
	h.Write(buf[:])
	return h.Sum64()
}

// TestClutterMatchesFNV pins the inline FNV-1a against hash/fnv: at the
// extreme seeds, on swapped pairs (clutter orders the pair first), and on
// random triples over the whole uint64 range.
func TestClutterMatchesFNV(t *testing.T) {
	for _, seed := range []uint64{0, math.MaxUint64, 1, 0x4d697261} {
		tp := &Topology{ClutterDB: 16, ClutterSeed: seed}
		for _, p := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {84, 3}, {3, 84}, {65535, 7}} {
			i, j := p[0], p[1]
			lo, hi := uint64(min(i, j)), uint64(max(i, j))
			want := 16 * float64(fnvPairHash(seed, lo, hi)%10000) / 9999
			if got := tp.clutter(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %#x: clutter(%d, %d) = %v, want %v", seed, i, j, got, want)
			}
		}
		for _, w := range []uint64{0, math.MaxUint64} {
			if got, want := pairHash(seed, w, w), fnvPairHash(seed, w, w); got != want {
				t.Errorf("pairHash(%#x, %#x, %#x) = %#x, want %#x", seed, w, w, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		seed, i, j := rng.Uint64(), rng.Uint64(), rng.Uint64()
		if got, want := pairHash(seed, i, j), fnvPairHash(seed, i, j); got != want {
			t.Fatalf("pairHash(%#x, %#x, %#x) = %#x, want %#x", seed, i, j, got, want)
		}
	}
}

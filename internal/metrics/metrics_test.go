package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation: median of [1,2,3,4] is 2.5.
	if got := Quantile([]float64{4, 3, 2, 1}, 0.5); got != 2.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 0
			}
		}
		qa, qb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(vals, qa) <= Quantile(vals, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplot(t *testing.T) {
	b := NewBoxplot([]float64{4, 1, 5, 3, 2}) // unsorted: min and max are found, not read off the ends
	if b.Min != 1 || b.Median != 3 || b.Max != 5 || b.Mean != 3 || b.N != 5 {
		t.Fatalf("boxplot = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles = %v, %v", b.Q1, b.Q3)
	}
	if e := NewBoxplot(nil); e != (Boxplot{}) {
		t.Fatalf("empty boxplot = %+v, want zero", e)
	}
	if b.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSeriesWindowMean(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i)*2)
	}
	if s.Len() != 10 {
		t.Fatal("len wrong")
	}
	if got := s.WindowMean(2, 5); got != (4+6+8)/3.0 {
		t.Fatalf("WindowMean = %v", got)
	}
	if !math.IsNaN(s.WindowMean(100, 200)) {
		t.Fatal("empty window should be NaN")
	}
}

func TestTreeDepthsChain(t *testing.T) {
	// 0 <- 1 <- 2 <- 3
	parents := []int{-1, 0, 1, 2}
	d := TreeDepths(parents, 0)
	for i, want := range []int{0, 1, 2, 3} {
		if d[i] != want {
			t.Fatalf("depths = %v", d)
		}
	}
}

func TestTreeDepthsDetachedAndLoop(t *testing.T) {
	// 0 root; 1 -> 2 -> 1 loop; 3 detached; 4 -> 0 fine.
	parents := []int{-1, 2, 1, -1, 0}
	d := TreeDepths(parents, 0)
	if d[0] != 0 || d[4] != 1 {
		t.Fatalf("depths = %v", d)
	}
	if d[1] != -1 || d[2] != -1 || d[3] != -1 {
		t.Fatalf("loop/detached nodes must be -1: %v", d)
	}
	mean, connected, detached := MeanDepth(d, 0)
	if connected != 1 || detached != 3 || mean != 1 {
		t.Fatalf("MeanDepth = (%v, %d, %d)", mean, connected, detached)
	}
}

func TestTreeDepthsBranching(t *testing.T) {
	//      0
	//    / | \
	//   1  2  3
	//  / \
	// 4   5
	parents := []int{-1, 0, 0, 0, 1, 1}
	d := TreeDepths(parents, 0)
	want := []int{0, 1, 1, 1, 2, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("depths = %v, want %v", d, want)
		}
	}
	mean, connected, detached := MeanDepth(d, 0)
	if detached != 0 || connected != 5 {
		t.Fatal("connectivity wrong")
	}
	if math.Abs(mean-7.0/5.0) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
}

// Property: depths are consistent — every anchored node's depth is its
// parent's depth + 1.
func TestPropertyTreeDepthConsistency(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		parents := make([]int, n)
		for i, r := range raw {
			p := int(r)%(n+1) - 1 // -1 .. n-1
			if p == i {
				p = -1
			}
			parents[i] = p
		}
		d := TreeDepths(parents, 0)
		if d[0] != 0 {
			return false
		}
		for i := 1; i < n; i++ {
			if d[i] < 0 {
				continue
			}
			p := parents[i]
			if p < 0 || p >= n || d[p] < 0 || d[i] != d[p]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

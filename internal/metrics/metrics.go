// Package metrics provides the small statistical toolkit the experiment
// harness uses to report the paper's numbers: streaming summaries,
// quantiles, boxplot five-number summaries (Figure 8), time series
// (Figure 3), and routing-tree depth computation (Figures 2, 6, 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations.
type Summary struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

// Add records an observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It sorts a copy.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Boxplot is the five-number summary used for Figure 8.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// NewBoxplot summarizes values.
func NewBoxplot(values []float64) Boxplot {
	if len(values) == 0 {
		return Boxplot{}
	}
	var s Summary
	for _, v := range values {
		s.Add(v)
	}
	return Boxplot{
		Min:    s.Min(),
		Q1:     Quantile(values, 0.25),
		Median: Quantile(values, 0.5),
		Q3:     Quantile(values, 0.75),
		Max:    s.Max(),
		Mean:   s.Mean(),
		N:      len(values),
	}
}

// String renders the summary compactly.
func (b Boxplot) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f (n=%d)",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
}

// Series is a time-indexed sequence of values (Figure 3's PRR/LQI traces).
type Series struct {
	T []float64 // time, in whatever unit the caller uses (hours for Fig 3)
	V []float64
}

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// WindowMean averages the values with t in [t0, t1).
func (s *Series) WindowMean(t0, t1 float64) float64 {
	var sum float64
	var n int
	for i, t := range s.T {
		if t >= t0 && t < t1 {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// TreeDepths computes each node's hop distance to its tree root by
// following parent pointers. parents[i] is the parent index of node i, -1
// for "no parent". Every root anchors at depth 0, so with several sinks
// (the multi-sink collection workload) each node's depth is its hop
// distance to whichever sink its parent chain reaches. Nodes on loops or
// detached from a root get depth -1.
func TreeDepths(parents []int, roots ...int) []int {
	n := len(parents)
	depths := make([]int, n)
	for i := range depths {
		depths[i] = -1
	}
	for _, root := range roots {
		if root >= 0 && root < n {
			depths[root] = 0
		}
	}
	for i := 0; i < n; i++ {
		if depths[i] >= 0 {
			continue
		}
		path := []int{}
		cur := i
		for {
			if cur < 0 || cur >= n {
				break
			}
			if depths[cur] >= 0 {
				d := depths[cur]
				for k := len(path) - 1; k >= 0; k-- {
					d++
					depths[path[k]] = d
				}
				break
			}
			looped := false
			for _, p := range path {
				if p == cur {
					looped = true
					break
				}
			}
			if looped {
				break
			}
			path = append(path, cur)
			cur = parents[cur]
		}
	}
	return depths
}

// MeanDepth averages the depths of all nodes except the roots, counting
// detached nodes (depth < 0) as notConnected instead, which is returned
// separately so callers can report both.
func MeanDepth(depths []int, roots ...int) (mean float64, connected, detached int) {
	isRoot := func(i int) bool {
		for _, r := range roots {
			if r == i {
				return true
			}
		}
		return false
	}
	var sum int
	for i, d := range depths {
		if isRoot(i) {
			continue
		}
		if d < 0 {
			detached++
			continue
		}
		sum += d
		connected++
	}
	if connected == 0 {
		return 0, 0, detached
	}
	return float64(sum) / float64(connected), connected, detached
}

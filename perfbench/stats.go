package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (0 for an empty sample). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// latencyWindow is the width of the windows windowMedian splits a run into.
const latencyWindow = time.Second

// windowMedian is the median, over consecutive one-second windows from
// start, of the median of the samples ending in each window (at[i] is when
// sample i ended). A burst of noise on the host that covers less than half
// of the windows then barely moves it.
func windowMedian(start time.Time, at []time.Time, vs []float64) float64 {
	byWindow := make(map[int][]float64)
	for i, v := range vs {
		w := int(at[i].Sub(start) / latencyWindow)
		byWindow[w] = append(byWindow[w], v)
	}
	meds := make([]float64, 0, len(byWindow))
	for _, s := range byWindow {
		meds = append(meds, median(s))
	}
	return median(meds)
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads this process's peak resident set in megabytes.
func peakRSSMB() (float64, error) { return readPeakRSSMB("/proc/self/status") }

// readPeakRSSMB reads VmHWM, the peak resident set, from a proc status
// file, in megabytes.
func readPeakRSSMB(status string) (float64, error) {
	f, err := os.Open(status)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in %s", status)
}

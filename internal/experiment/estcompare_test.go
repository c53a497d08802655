package experiment

import (
	"bytes"
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/topo"
)

// TestEstCompareRendering smoke-checks the figure output shape without
// running a simulation.
func TestEstCompareRendering(t *testing.T) {
	r := &EstCompareResult{Topo: topo.Grid(8, 8, 6), Runs: []*Result{
		{Estimator: core.KindFourBit, TxPowerDBm: -12.5, Cost: 2, MeanDepth: 2.5, DeliveryRatio: 0.99},
		{Estimator: core.KindWMEWMA, TxPowerDBm: -12.5, Cost: 4, MeanDepth: 2.6, DeliveryRatio: 0.93},
		{Estimator: core.KindLQI, TxPowerDBm: -12.5, Cost: 6, MeanDepth: 2.7, DeliveryRatio: 0.88},
	}}
	var b bytes.Buffer
	r.Fprint(&b)
	out := b.String()
	for _, want := range []string{"grid-8x8", "at -12.5 dBm", "4bit", "wmewma", "lqi", "4bit cost vs wmewma: -50%", "4bit cost vs lqi: -67%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

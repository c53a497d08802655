package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// hexf formats a float with its exact bit pattern so fingerprints cannot
// hide sub-ulp drift behind decimal rounding.
func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// Fingerprint renders a run's configuration and full result — every float
// down to its last mantissa bit — as a stable text block. The golden tests
// diff it against committed references, and the spatial-culling
// differential harness diffs it across channel representations: two runs
// fingerprint identically iff their trajectories were bit-for-bit the
// same. The header names the estimator kind only when RunConfig.Estimator
// selects one, so fingerprints of default-kind runs keep their old bytes.
func Fingerprint(rc RunConfig, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run proto=%v topo=%s seed=%d power=%s dur=%v",
		rc.Protocol, rc.Topo.Name, rc.Seed, hexf(rc.TxPowerDBm), rc.Duration)
	if rc.Estimator != "" {
		fmt.Fprintf(&b, " est=%s", rc.Estimator)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  generated=%d unique=%d dups=%d datatx=%d beacontx=%d events=%d detached=%d\n",
		res.Generated, res.Unique, res.Duplicates, res.DataTx, res.BeaconTx, res.Events, res.Detached)
	fmt.Fprintf(&b, "  delivery=%s cost=%s meandepth=%s meanhops=%s\n",
		hexf(res.DeliveryRatio), hexf(res.Cost), hexf(res.MeanDepth), hexf(res.MeanHops))
	fmt.Fprintf(&b, "  est=%d/%d/%d\n", res.EstInserted, res.EstReplaced, res.EstRejected)
	fmt.Fprintf(&b, "  parents=%v\n", res.FinalParents)
	fmt.Fprintf(&b, "  depths=%v\n", res.FinalDepths)
	b.WriteString("  pernode=")
	for i, v := range res.PerNodeDelivery {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(hexf(v))
	}
	b.WriteByte('\n')
	return b.String()
}

// Package core implements the paper's contribution: a link estimator driven
// by four bits of protocol-independent, cross-layer information.
//
// The four bits (§3.1 of the paper):
//
//   - white bit (physical layer, per received packet): set when every
//     symbol in the packet had a very low probability of decoding error —
//     the medium was clean during reception. Carried here in RxMeta.White,
//     produced by the phy layer.
//   - ack bit (link layer, per transmitted unicast): set when a synchronous
//     layer-2 acknowledgment arrived for the transmission. Fed to the
//     estimator through Estimator.TxResult.
//   - pin bit (network layer, per link-table entry): while set the
//     estimator may not evict the entry. Set via Estimator.Pin / Unpin.
//   - compare bit (network layer, per received routing packet, on demand):
//     the estimator asks the network layer whether the packet's sender
//     offers a route better than some current table entry. Supplied by the
//     network layer implementing Comparer.
//
// The estimator itself (Estimator) follows §3.3: a small table of candidate
// links managed with Woo et al.'s algorithm (random unpinned eviction gated
// on white+compare), and a hybrid ETX estimate combining a windowed-EWMA
// over beacon reception with windowed unicast ack counts.
//
// The package is also an estimator framework: LinkEstimator is the
// router-facing contract, and the four-bit design is one of several
// registered kinds (EstimatorKinds) — a Woo-style beacon-only WMEWMA, a
// windowed-mean PDR estimator, and a pure-LQI moving average — so the
// paper's comparative claims can be tested with the estimator, not the
// router, as the experimental variable. Every kind is one type, Estimator:
// its kind decides the sample source (beacon windows, or the LQI of every
// frame heard), the beacon window, which feature bits it honours, and the
// publish step (see Estimator.derive). Every kind admits through the one
// policy in policy.go (Estimator.admit), which takes the white/compare
// step only for a kind that honours it. See linkestimator.go for the
// contract, policy.go for the table mechanics, and lqiest.go for what
// only the lqi kind does.
package core

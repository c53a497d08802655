// Package scenario is the declarative experiment layer: it turns a
// serializable description of a collection scenario — topology generator,
// channel parameters, traffic pattern, protocol knobs, scripted dynamics —
// into the experiment harness's RunConfig batches, and expands parameter
// grids (Sweep) into replicated, aggregated result tables with CSV/JSONL
// export.
//
// The paper's claim is that four-bit estimation holds up across
// *conditions*; the figures cover a few of them. A Spec makes the rest
// reachable without writing a new harness: every figure is itself just a
// preset batch of Specs (Fig2Specs and friends are the only definition of
// each figure's runs; RunFig2 and friends execute them and hand the results
// to the figure's result type in internal/experiment), and new workloads —
// dense clusters, marginal power, mid-run interference, node churn — are
// data, not code.
//
// Layering: scenario sits above internal/experiment and compiles down to
// it. Execution always goes through experiment.RunAllWorkers, so a sweep's
// results are byte-identical for every worker count, and replication uses
// experiment.ReplicaSeeds, so cell confidence intervals reproduce exactly.
//
// The JSON forms of Spec and Sweep are the CLI surface (`fourbitsim
// scenario -spec`, `fourbitsim sweep -spec`); docs/SCENARIOS.md is the
// cookbook with a worked example for every knob.
package scenario

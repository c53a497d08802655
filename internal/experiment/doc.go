// Package experiment is the run harness behind every measured figure of the
// paper's evaluation (Figures 2, 3, 6, 7, 8 and the headline cost/delivery
// comparisons): Run executes one collection experiment from a RunConfig,
// RunAllWorkers executes a batch of them on a worker pool, and Replicate
// fans one config across seeds. The figure batches themselves are defined
// once, as scenario specs in internal/scenario; this package holds the
// figure result types, which regroup a batch's results (Assemble*) and
// render the rows or series the paper reports (Fprint). Figure 3, which
// instruments one link mid-run, is the one bespoke harness here (RunFig3).
// DESIGN.md §4 is the experiment index.
package experiment

package scenario

import (
	"fmt"
	"math"
	"strconv"

	"fourbit/internal/experiment"
)

// Axis is one swept parameter: a name from the registry below plus its
// values (numeric parameters use Values, protocol/topology names use
// Strings). Axis order is significant: the grid expands row-major with the
// last axis fastest, and result rows keep that order.
type Axis struct {
	Param   string
	Values  []float64 `json:",omitempty"`
	Strings []string  `json:",omitempty"`
}

// SweepParams lists the parameter names an Axis may sweep, with the Spec
// field each one drives.
//
//	protocol       Spec.Protocol            (Strings)
//	estimator      Spec.Estimator           (Strings; dropped on MultiHopLQI cells)
//	topology       Spec.Topology.Kind       (Strings)
//	txpower        Spec.TxPowerDBm          dBm
//	nodes          Spec.Topology.N
//	clusters       Spec.Topology.Clusters
//	spacing-m      Spec.Topology.SpacingM
//	clutter-db     Spec.Topology.ClutterDB
//	tablesize      Spec.TableSize (no-op on MultiHopLQI cells, which have no table)
//	beaconmax-s    Spec.BeaconMaxS
//	period-s       Spec.Traffic.PeriodS
//	noise-burst-db Spec.Channel.NoiseBurstAmpDB
//	duration-min   Spec.DurationMin
//	seed           Spec.Seed
func SweepParams() []string {
	return []string{"protocol", "estimator", "topology", "txpower", "nodes", "clusters",
		"spacing-m", "clutter-db", "tablesize", "beaconmax-s", "period-s",
		"noise-burst-db", "duration-min", "seed"}
}

func (a *Axis) len() int {
	if len(a.Strings) > 0 {
		return len(a.Strings)
	}
	return len(a.Values)
}

func (a *Axis) validate() error {
	// The registry check runs first: a misspelled parameter must say so,
	// not complain about the value type it would have needed.
	found := false
	for _, p := range SweepParams() {
		if p == a.Param {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown sweep parameter %q (parameters: %v)", a.Param, SweepParams())
	}
	switch {
	case len(a.Values) > 0 && len(a.Strings) > 0:
		return fmt.Errorf("axis %q sets both Values and Strings", a.Param)
	case len(a.Values) == 0 && len(a.Strings) == 0:
		return fmt.Errorf("axis %q has no values", a.Param)
	}
	stringly := a.Param == "protocol" || a.Param == "estimator" || a.Param == "topology"
	if stringly && len(a.Strings) == 0 {
		return fmt.Errorf("axis %q needs Strings values", a.Param)
	}
	if !stringly && len(a.Values) == 0 {
		return fmt.Errorf("axis %q needs numeric Values", a.Param)
	}
	if integerParams[a.Param] {
		for _, v := range a.Values {
			// A value apply would truncate or wrap must not run under a
			// label that names another value.
			if v != math.Trunc(v) || math.Signbit(v) || v > maxIntegerValue {
				return fmt.Errorf("axis %q needs whole numbers in [0, 2^53], got %v", a.Param, v)
			}
		}
	}
	return nil
}

// integerParams are the axes whose values apply converts to an integer.
var integerParams = map[string]bool{"seed": true, "nodes": true, "clusters": true, "tablesize": true}

// maxIntegerValue is 2^53: a float64 holds every integer up to it exactly.
const maxIntegerValue = 1 << 53

// label formats value i for result rows and CSV columns.
func (a *Axis) label(i int) string {
	if len(a.Strings) > 0 {
		return a.Strings[i]
	}
	return strconv.FormatFloat(a.Values[i], 'g', -1, 64)
}

// apply writes value i of the axis into the spec.
func (a *Axis) apply(s *Spec, i int) {
	if len(a.Strings) > 0 {
		switch a.Param {
		case "protocol":
			s.Protocol = a.Strings[i]
		case "estimator":
			s.Estimator = a.Strings[i]
		case "topology":
			s.Topology.Kind = a.Strings[i]
		}
		return
	}
	v := a.Values[i]
	switch a.Param {
	case "txpower":
		s.TxPowerDBm = v
	case "nodes":
		s.Topology.N = int(v)
	case "clusters":
		s.Topology.Clusters = int(v)
	case "spacing-m":
		s.Topology.SpacingM = v
	case "clutter-db":
		s.Topology.ClutterDB = v
	case "tablesize":
		s.TableSize = int(v)
	case "beaconmax-s":
		s.BeaconMaxS = v
	case "period-s":
		if s.Traffic == nil {
			s.Traffic = &TrafficSpec{}
		} else {
			t := *s.Traffic
			s.Traffic = &t
		}
		s.Traffic.PeriodS = v
	case "noise-burst-db":
		if s.Channel == nil {
			s.Channel = &ChannelSpec{}
		} else {
			c := *s.Channel
			s.Channel = &c
		}
		amp := v
		s.Channel.NoiseBurstAmpDB = &amp
	case "duration-min":
		s.DurationMin = v
	case "seed":
		s.Seed = uint64(v)
	}
}

// Sweep is a parameter grid over a base scenario: the cartesian product of
// the axes, each cell a Spec derived from Base with the cell's values
// applied, replicated Base.Replicates times.
type Sweep struct {
	Name string `json:",omitempty"`
	Base Spec
	Axes []Axis
}

// Label is one cell coordinate, e.g. {Param: "txpower", Value: "-10"}.
type Label struct {
	Param string
	Value string
}

// Cell is one expanded grid point.
type Cell struct {
	Index  int
	Labels []Label
	Spec   Spec
}

// maxCells bounds a sweep's grid; beyond this the spec is almost certainly
// a typo (and the flat run batch would not fit in memory anyway).
const maxCells = 100000

// Validate checks the axes and the base spec.
func (sw *Sweep) Validate() error {
	cells := 1
	for i := range sw.Axes {
		if err := sw.Axes[i].validate(); err != nil {
			return fmt.Errorf("sweep %q: %w", sw.Name, err)
		}
		cells *= sw.Axes[i].len()
		if cells > maxCells {
			return fmt.Errorf("sweep %q: grid exceeds %d cells", sw.Name, maxCells)
		}
	}
	// The base must be valid for at least one cell; full validation of
	// every cell happens during expansion (axes may fix what the base
	// leaves unset, e.g. a "nodes" axis over a generated topology).
	return nil
}

// Cells expands the grid in row-major order (last axis fastest). Every
// cell's spec is fully validated; the first invalid cell aborts expansion.
func (sw *Sweep) Cells() ([]Cell, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	total := 1
	for i := range sw.Axes {
		total *= sw.Axes[i].len()
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(sw.Axes))
	for n := 0; n < total; n++ {
		spec := sw.Base
		labels := make([]Label, len(sw.Axes))
		for ai := range sw.Axes {
			a := &sw.Axes[ai]
			a.apply(&spec, idx[ai])
			labels[ai] = Label{Param: a.Param, Value: a.label(idx[ai])}
		}
		// In a protocol × tablesize (or × estimator) cross-product the
		// MultiHopLQI cells have no link table for the knob to drive; drop
		// them so those cells run the protocol default instead of failing
		// validation. A standalone Spec stating the same contradiction
		// still errors.
		if spec.Protocol == "MultiHopLQI" {
			spec.TableSize, spec.FooterEntries = 0, 0
			spec.Estimator = ""
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("sweep %q cell %d %v: %w", sw.Name, n, labels, err)
		}
		cells = append(cells, Cell{Index: n, Labels: labels, Spec: spec})
		for ai := len(sw.Axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < sw.Axes[ai].len() {
				break
			}
			idx[ai] = 0
		}
	}
	return cells, nil
}

// CellResult pairs a cell with its aggregated replicate outcome.
type CellResult struct {
	Cell Cell
	Rep  *experiment.Replicated
}

// SweepResult is the outcome of a full grid.
type SweepResult struct {
	Name  string
	Cells []CellResult
}

// Run expands the grid, flattens every cell's replicate batch into one
// submission to the experiment worker pool, and regroups per cell. Cells
// on one geometry share one topology and one channel precompute. workers
// <= 0 means the default pool (all CPUs). Because RunAllWorkers' results
// depend only on the RunConfigs, a sweep's output is byte-identical for
// every worker count.
func (sw *Sweep) Run(workers int) (*SweepResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = experiment.DefaultWorkers()
	}
	type span struct {
		off   int
		seeds []uint64
	}
	var flat []experiment.RunConfig
	spans := make([]span, len(cells))
	topos := topoCache{}
	for i := range cells {
		rcs, seeds, err := cells[i].Spec.batch(topos)
		if err != nil {
			return nil, err
		}
		spans[i] = span{off: len(flat), seeds: seeds}
		flat = append(flat, rcs...)
	}
	results := experiment.RunAllWorkers(flat, workers)
	out := &SweepResult{Name: sw.Name, Cells: make([]CellResult, len(cells))}
	for i := range cells {
		sp := spans[i]
		runs := results[sp.off : sp.off+len(sp.seeds)]
		rc := flat[sp.off]
		out.Cells[i] = CellResult{
			Cell: cells[i],
			Rep:  experiment.Aggregate(rc.Protocol, rc.TxPowerDBm, sp.seeds, runs),
		}
	}
	return out, nil
}

// ParseSweep decodes and validates a JSON sweep. Unknown fields are errors,
// and so is anything but whitespace after the sweep.
func ParseSweep(data []byte) (Sweep, error) {
	var sw Sweep
	if err := decodeStrict(data, &sw); err != nil {
		return Sweep{}, fmt.Errorf("scenario: parsing sweep: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

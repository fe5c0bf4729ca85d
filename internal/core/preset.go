package core

import (
	"fmt"
	"math"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// Preset carries mid-execution state into LoCBS, enabling the on-line
// rescheduling the paper lists as future work (§VI): tasks that already ran
// (or are running) keep their placements and observed times, and each
// processor may be unavailable until some frontier.
type Preset struct {
	// Fixed maps task ids to their committed placements. Fixed tasks are
	// not re-placed; their processor sets and finish times feed the
	// locality and readiness computations of the remaining tasks.
	Fixed map[int]schedule.Placement
	// BusyUntil gives, per processor, the earliest time it is available
	// for newly placed work (e.g. the finish time of whatever currently
	// occupies it). Nil means all processors are free from time zero.
	BusyUntil []float64
	// NodeFactor scales execution times per node (1 = nominal, 2 = the
	// node runs at half speed). A task spanning several nodes runs at the
	// slowest one's pace. Nil means homogeneous nominal speed.
	NodeFactor []float64
}

func (p *Preset) validate(tg *model.TaskGraph, c model.Cluster) error {
	if p.BusyUntil != nil && len(p.BusyUntil) != c.P {
		return fmt.Errorf("core: BusyUntil has %d entries for P=%d", len(p.BusyUntil), c.P)
	}
	if p.NodeFactor != nil {
		if len(p.NodeFactor) != c.P {
			return fmt.Errorf("core: NodeFactor has %d entries for P=%d", len(p.NodeFactor), c.P)
		}
		for i, f := range p.NodeFactor {
			if !(f > 0) || math.IsInf(f, 1) {
				return fmt.Errorf("core: NodeFactor[%d] = %v must be finite and positive", i, f)
			}
		}
	}
	for t, pl := range p.Fixed {
		if t < 0 || t >= tg.N() {
			return fmt.Errorf("core: fixed task %d out of range", t)
		}
		if pl.NP() == 0 {
			return fmt.Errorf("core: fixed task %d has no processors", t)
		}
		for _, proc := range pl.Procs {
			if proc < 0 || proc >= c.P {
				return fmt.Errorf("core: fixed task %d on processor %d outside [0,%d)", t, proc, c.P)
			}
		}
	}
	return nil
}

// LoCBSWithPreset runs LoCBS for the tasks not covered by the preset,
// honouring fixed placements, busy frontiers and per-node speeds. The
// returned schedule contains the fixed placements verbatim plus fresh
// placements for every remaining task.
func LoCBSWithPreset(tg *model.TaskGraph, cluster model.Cluster, np []int, cfg Config, preset Preset) (*schedule.Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := preset.validate(tg, cluster); err != nil {
		return nil, err
	}
	if len(np) != tg.N() {
		return nil, fmt.Errorf("core: allocation vector has %d entries for %d tasks", len(np), tg.N())
	}
	for t, n := range np {
		if _, fixed := preset.Fixed[t]; fixed {
			continue // fixed tasks keep their historical width
		}
		if n < 1 || n > cluster.P {
			return nil, fmt.Errorf("core: task %d allocated %d processors outside [1,%d]", t, n, cluster.P)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	return runPlacer(tg, cluster, np, cfg.withDefaults(), preset, sc, false)
}

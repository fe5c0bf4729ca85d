package locmps

import (
	"io"

	"locmps/internal/stream"
)

// Open-loop streaming scheduling: DAG jobs arrive over simulated time
// (Poisson process or SWF trace replay) and the ready frontier is
// rescheduled on every arrival/completion/failure/resize event with
// rolling-horizon incremental LoC-MPS. See internal/stream and DESIGN.md
// §12.
type (
	// StreamJob is one streaming DAG job: a task graph plus its arrival
	// time.
	StreamJob = stream.Job
	// StreamFail injects a mid-run task failure (the task re-enters the
	// frontier).
	StreamFail = stream.Fail
	// StreamResize shrinks or grows the online processor set.
	StreamResize = stream.Resize
	// StreamConfig describes one streaming scenario.
	StreamConfig = stream.Config
	// StreamEvent is the per-event record (deltas, reschedule latency,
	// search stats).
	StreamEvent = stream.EventRecord
	// StreamResult is the replay outcome: events, completion times,
	// latency quantiles and the audited end-state schedule.
	StreamResult = stream.Result
	// StreamSim is the stepped simulator underlying SimulateStream.
	StreamSim = stream.Sim
	// PoissonOpts configures open-loop Poisson load generation.
	PoissonOpts = stream.PoissonOpts
	// SWFStreamOpts configures SWF trace replay as a DAG job stream.
	SWFStreamOpts = stream.SWFOpts
	// USLFit is a Universal Scalability Law fit of throughput vs load.
	USLFit = stream.USLFit
)

// SimulateStream replays a streaming scenario to completion: every event
// reschedules the active jobs' union with started tasks fixed, and every
// emitted schedule is audit-checked with full redistribution accounting.
func SimulateStream(cfg StreamConfig) (*StreamResult, error) {
	return stream.Run(cfg)
}

// NewStreamSim prepares a stepped streaming simulator (advance with
// Step).
func NewStreamSim(cfg StreamConfig) (*StreamSim, error) {
	return stream.New(cfg)
}

// PoissonStream generates an open-loop Poisson DAG job stream,
// deterministic per seed.
func PoissonStream(o PoissonOpts) ([]StreamJob, error) {
	return stream.PoissonJobs(o)
}

// SWFStream replays a Standard Workload Format trace as a DAG job
// stream; maxProcs caps record widths as ReadSWF does.
func SWFStream(r io.Reader, maxProcs int, o SWFStreamOpts) ([]StreamJob, error) {
	return stream.SWFJobs(r, maxProcs, o)
}

// FitUSL fits the Universal Scalability Law to (offered load, achieved
// throughput) samples, reporting contention/coherency coefficients and
// the saturation point.
func FitUSL(load, rate []float64) (USLFit, error) {
	return stream.FitUSL(load, rate)
}

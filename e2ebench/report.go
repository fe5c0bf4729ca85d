package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report is what one workload run produced.
type report struct {
	Attempted, Failed int
	// Errors holds the first few correctness failures, for the log.
	Errors []string
	// Metrics are the figures of this mode: end-to-end for a plain run,
	// per-layer for a traced run. Info are extra human-readable figures
	// (the workload-specific names behind the uniform metrics, absolute
	// per-layer times, sample counts) that do not go into the JSON line.
	Metrics []metric
	Info    []metric
	// Determinism classifies every per-layer count of a traced run.
	Determinism []string
	Spans       []span
}

func (r *report) add(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{name, unit, v, note})
}

func (r *report) info(name, unit string, v float64, note string) {
	r.Info = append(r.Info, metric{name, unit, v, note})
}

// fail counts one failed operation and keeps its message for the log.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// printTable writes the human-readable part of the output.
func (r *report) printTable(w io.Writer) {
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"metrics", r.Metrics}, {"detail", r.Info}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "-- %s\n", group.title)
		for _, m := range group.ms {
			fmt.Fprintf(w, "%-34s %16.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	if len(r.Determinism) > 0 {
		fmt.Fprintln(w, "-- count determinism (two passes over the same inputs)")
		for _, d := range r.Determinism {
			fmt.Fprintln(w, d)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of the output.
func (r *report) resultLine() ([]byte, error) {
	ms := make(map[string]jsonMetric, len(r.Metrics))
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = -1 // only reachable when requests failed, so correct is false
		}
		ms[m.Name] = jsonMetric{v, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
}

// decls lists the name and unit of every metric a report carries.
func (r *report) decls() []decl {
	var out []decl
	for _, m := range r.Metrics {
		out = append(out, decl{m.Name, m.Unit})
	}
	return out
}

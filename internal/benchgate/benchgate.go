// Package benchgate owns the committed benchmark files — BENCH_locmps.json,
// BENCH_serve.json and BENCH_stream.json: their schema, the baseline
// bookkeeping that rewrites them, and every pass/fail check the bench gate
// and the smoke runs apply. cmd/benchjson, cmd/loadgen and cmd/streamgen
// only measure; this package decides what is recorded and what fails.
//
// Every file keeps two snapshots keyed by case name: "baseline" (written
// once, preserved on every rewrite) and "current" (refreshed by each run),
// under a header naming the host that recorded "current".
package benchgate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"locmps/internal/latring"
)

// File is the envelope every BENCH file shares.
type File[R any] struct {
	Note string `json:"note,omitempty"`
	// CPUs, GOMAXPROCS and GoVersion describe the host that recorded
	// "current": timing figures compare only between similar hosts, and
	// throughput cannot scale past the core count whatever the worker count.
	CPUs       int          `json:"cpus"`
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	GoVersion  string       `json:"go_version,omitempty"`
	Baseline   map[string]R `json:"baseline"`
	Current    map[string]R `json:"current"`
}

// New returns an empty file stamped with this host.
func New[R any](note string) File[R] {
	return File[R]{
		Note:       note,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Baseline:   map[string]R{},
		Current:    map[string]R{},
	}
}

// Read decodes the BENCH file at path. A missing file is not an error: it
// reports found=false and a zero file, so a first run starts fresh. A file
// that does not decode is an error.
func Read[F any](path string) (f F, found bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return f, false, nil
	}
	if err != nil {
		return f, false, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, false, fmt.Errorf("%s is not valid: %w", path, err)
	}
	return f, true, nil
}

// Update folds this run into prev, the file previously recorded at the same
// path (zero when there was none). prev's note and baseline are kept, except
// that baseline entries already set on f — an explicit re-baseline — replace
// prev's. Every current case the baseline still lacks is backfilled from
// this run. Update then warns on log about every stale case, whose baseline
// and current entries are byte-identical: the vacuous 1.0x of a baseline
// that was never re-measured. Cases it just backfilled are exempt, since
// their equality is by construction.
func (f *File[R]) Update(prev File[R], log io.Writer) {
	if prev.Note != "" {
		f.Note = prev.Note
	}
	base := map[string]R{}
	maps.Copy(base, prev.Baseline)
	if len(base) == 0 {
		fmt.Fprintln(log, "no existing baseline: current run recorded as baseline")
	}
	maps.Copy(base, f.Baseline)
	f.Baseline = base
	fresh := map[string]bool{}
	for _, name := range sortedKeys(f.Current) {
		if _, ok := base[name]; !ok {
			base[name] = f.Current[name]
			fresh[name] = true
			if len(prev.Baseline) > 0 {
				fmt.Fprintf(log, "%-34s new case: current run backfilled into baseline\n", name)
			}
		}
	}
	for _, name := range f.Stale() {
		if !fresh[name] {
			fmt.Fprintf(log, "warning: %s baseline == current byte-for-byte (stale backfill); re-measure it or delete the file to re-baseline\n", name)
		}
	}
}

// Stale names, in order, every case whose baseline and current entries
// marshal to the same bytes.
func (f *File[R]) Stale() []string {
	var stale []string
	for _, name := range sortedKeys(f.Current) {
		base, ok := f.Baseline[name]
		if !ok {
			continue
		}
		bj, err1 := json.Marshal(base)
		cj, err2 := json.Marshal(f.Current[name])
		if err1 == nil && err2 == nil && bytes.Equal(bj, cj) {
			stale = append(stale, name)
		}
	}
	return stale
}

// sortedKeys lists m's case names in order, so that every report and
// warning comes out in the same order on every run.
func sortedKeys[R any](m map[string]R) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Save writes v, a BENCH file, to path as indented JSON.
func Save(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Quantile is the nearest-rank q-th percentile of lats (0 when empty), by
// the rank rule of internal/latring, so that quantiles taken by a bench
// command and by the service agree.
func Quantile(lats []time.Duration, q int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	cp := slices.Clone(lats)
	slices.Sort(cp)
	return cp[latring.Rank(len(cp), q)]
}

package benchgate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// record runs one write cycle the way the bench commands do: read the file
// at path, fold this run's current snapshot into it, save it. It returns
// what Update logged.
func record(t *testing.T, path string, current map[string]StreamResult) string {
	t.Helper()
	prev, _, err := Read[StreamFile](path)
	if err != nil {
		t.Fatal(err)
	}
	out := StreamFile{File: New[StreamResult]("fresh note")}
	out.Current = current
	var log bytes.Buffer
	out.Update(prev.File, &log)
	if err := Save(path, out); err != nil {
		t.Fatal(err)
	}
	return log.String()
}

func readStream(t *testing.T, path string) StreamFile {
	t.Helper()
	f, found, err := Read[StreamFile](path)
	if err != nil || !found {
		t.Fatalf("read %s: found=%v err=%v", path, found, err)
	}
	return f
}

func TestWriteFreshFileBecomesItsOwnBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	log := record(t, path, map[string]StreamResult{"A": {Events: 1}, "B": {Events: 2}})
	if strings.Contains(log, "warning") {
		t.Fatalf("fresh file warned:\n%s", log)
	}
	f := readStream(t, path)
	if f.Baseline["A"].Events != 1 || f.Baseline["B"].Events != 2 || len(f.Baseline) != 2 {
		t.Fatalf("baseline = %+v, want the current run", f.Baseline)
	}
	if f.Note != "fresh note" || f.CPUs < 1 || f.GOMAXPROCS < 1 || f.GoVersion == "" {
		t.Fatalf("header = %q cpus=%d gomaxprocs=%d go=%q, want the host stamped", f.Note, f.CPUs, f.GOMAXPROCS, f.GoVersion)
	}
}

func TestWriteBackfillsNewCaseWithoutWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	record(t, path, map[string]StreamResult{"A": {Events: 1}})
	log := record(t, path, map[string]StreamResult{"A": {Events: 5}, "B": {Events: 7}})
	if strings.Contains(log, "warning") || !strings.Contains(log, "B") {
		t.Fatalf("log = %q, want a backfill line for B and no warning", log)
	}
	f := readStream(t, path)
	if f.Baseline["A"].Events != 1 || f.Baseline["B"].Events != 7 {
		t.Fatalf("baseline = %+v, want A kept at 1 and B backfilled at 7", f.Baseline)
	}
}

func TestWriteWarnsOnStalePairFromOlderRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	record(t, path, map[string]StreamResult{"A": {Events: 1}, "B": {Events: 2}})
	// A is measured again with the very bytes its baseline holds; B moves.
	log := record(t, path, map[string]StreamResult{"A": {Events: 1}, "B": {Events: 3}})
	if !strings.Contains(log, "warning: A baseline == current") || strings.Contains(log, "warning: B") {
		t.Fatalf("log = %q, want one stale warning, for A", log)
	}
}

func TestWriteKeepsExistingBaselineByteForByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	record(t, path, map[string]StreamResult{
		"A": {Events: 183, ReschedP50Ns: 33561402, ReplayRateEPS: 254.23857698884058, Loads: []float64{1.1170212765957446, 5}},
	})
	before, err := json.Marshal(readStream(t, path).Baseline)
	if err != nil {
		t.Fatal(err)
	}
	record(t, path, map[string]StreamResult{"A": {Events: 184, ReplayRateEPS: 1}})
	f := readStream(t, path)
	after, err := json.Marshal(f.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("baseline changed on rewrite:\n%s\n%s", before, after)
	}
	if f.Note != "fresh note" {
		t.Fatalf("note = %q, want the writer's note", f.Note)
	}
}

func TestUpdateWriterNoteWins(t *testing.T) {
	for _, tc := range []struct{ prev, writer, want string }{
		{prev: "stale note", writer: "corrected note", want: "corrected note"},
		{prev: "stale note", writer: "", want: "stale note"},
		{prev: "", writer: "first note", want: "first note"},
	} {
		out := New[StreamResult](tc.writer)
		out.Update(File[StreamResult]{Note: tc.prev}, &bytes.Buffer{})
		if out.Note != tc.want {
			t.Errorf("prev %q, writer %q: note = %q, want %q", tc.prev, tc.writer, out.Note, tc.want)
		}
	}
}

func TestUpdateExplicitBaselineReplacesPrevious(t *testing.T) {
	prev := File[StreamResult]{Baseline: map[string]StreamResult{"A": {Events: 1}, "B": {Events: 2}}}
	out := New[StreamResult]("")
	out.Baseline["A"] = StreamResult{Events: 9}
	out.Current["A"] = StreamResult{Events: 3}
	out.Current["B"] = StreamResult{Events: 4}
	out.Update(prev, &bytes.Buffer{})
	if out.Baseline["A"].Events != 9 || out.Baseline["B"].Events != 2 {
		t.Fatalf("baseline = %+v, want A re-baselined to 9 and B kept at 2", out.Baseline)
	}
}

func TestReadMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	if _, found, err := Read[LocmpsFile](filepath.Join(dir, "absent.json")); found || err != nil {
		t.Fatalf("missing file: found=%v err=%v, want neither", found, err)
	}
	bad := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(bad, []byte(`{"note": "x", "baseline": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read[LocmpsFile](bad); err == nil {
		t.Fatal("truncated file decoded without error")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		lats []time.Duration
		q    int
		want time.Duration
	}{
		{nil, 50, 0},
		{ms(7), 99, 7 * time.Millisecond},
		{ms(100, 1), 50, 1 * time.Millisecond},
		{ms(100, 1), 99, 100 * time.Millisecond},
		{ms(5, 4, 3, 2, 1), 50, 3 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Quantile(c.lats, c.q); got != c.want {
			t.Errorf("Quantile(%v, %d) = %v, want %v", c.lats, c.q, got, c.want)
		}
	}
	in := ms(3, 1, 2)
	Quantile(in, 50)
	if in[0] != 3*time.Millisecond {
		t.Fatal("Quantile sorted its input in place")
	}
}

// TestCommittedBenchFilesMatchSchema decodes the committed BENCH files
// strictly: a field the schema does not know is a stale field nothing
// writes any more, or a typo.
func TestCommittedBenchFilesMatchSchema(t *testing.T) {
	for _, c := range []struct {
		path string
		v    any
	}{
		{"../../BENCH_locmps.json", &LocmpsFile{}},
		{"../../BENCH_serve.json", &ServeFile{}},
		{"../../BENCH_stream.json", &StreamFile{}},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(c.v); err != nil {
			t.Errorf("%s: %v", c.path, err)
		}
	}
}

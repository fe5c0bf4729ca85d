package exp

import (
	"reflect"
	"testing"
)

func TestSearchStatsFigure(t *testing.T) {
	opt := tinySuite()
	f, err := SearchStatsFigure(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"locbs-runs", "lookahead-steps", "cache-hit-%",
		"resumed-runs", "replayed-tasks", "rollback-depth", "replay-%"}
	if len(f.Series) != len(want) {
		t.Fatalf("stats: %d series, want %d", len(f.Series), len(want))
	}
	for i, s := range f.Series {
		if s.Name != want[i] {
			t.Errorf("series %d named %q, want %q", i, s.Name, want[i])
		}
		if len(s.Points) != len(opt.Procs) {
			t.Errorf("series %s has %d points, want %d", s.Name, len(s.Points), len(opt.Procs))
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("series %s negative at P=%v: %v", s.Name, p.X, p.Y)
			}
		}
	}
	for _, name := range []string{"locbs-runs", "lookahead-steps", "cache-hit-%", "resumed-runs", "replayed-tasks"} {
		s, ok := f.SeriesByName(name)
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		for _, p := range s.Points {
			if p.Y == 0 {
				t.Errorf("series %s is zero at P=%v — search layer not measured", name, p.X)
			}
		}
	}

	// The figure is deterministic for any worker count.
	serial := opt
	serial.Workers = 1
	f2, err := SearchStatsFigure(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Series, f2.Series) {
		t.Error("stats figure differs between parallel and serial runs")
	}
}

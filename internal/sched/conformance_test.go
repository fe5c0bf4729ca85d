package sched_test

import (
	"context"
	"testing"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/sched"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

// This file is the engine-conformance suite: every engine handed out by the
// registry must satisfy the schedule.Engine contract — name round-trip,
// audit-clean schedules, ScheduleContext bit-identical to Schedule under a
// background context and prompt cancellation — and exactly the pinned
// LoC-MPS engines implement the budgeted entry point. It lives in an
// external test package so it can use internal/audit (which itself imports
// sched for its harness).

func conformanceGraph(t *testing.T, tasks int, seed int64) *model.TaskGraph {
	t.Helper()
	p := synth.DefaultParams()
	p.Tasks = tasks
	p.CCR = 0.25
	p.Seed = seed
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return tg
}

// anytimeEngine is the budget entry point of the LoC-MPS family.
type anytimeEngine interface {
	ScheduleBudget(ctx context.Context, tg *model.TaskGraph, c model.Cluster, b core.Budget) (*core.AnytimeResult, error)
}

func TestEngineConformance(t *testing.T) {
	// 6 tasks keeps OPT's exhaustive search inside its instance limit, so
	// one instance exercises every registered engine.
	tg := conformanceGraph(t, 6, 77)
	c := model.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: true}

	names := sched.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	// The engines with a budgeted search; no baseline has one.
	anytime := map[string]bool{"LoC-MPS": true, "LoC-MPS-NoBF": true, "iCASLB": true}
	for name := range anytime {
		if !sched.Known(name) {
			t.Errorf("budgeted engine %q is not registered", name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			eng, err := sched.ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			if got := eng.Name(); got != name {
				t.Fatalf("registered as %q but Name() = %q", name, got)
			}

			if _, ok := eng.(anytimeEngine); ok != anytime[name] {
				t.Fatalf("ScheduleBudget implemented = %v, want %v", ok, anytime[name])
			}

			s, err := eng.Schedule(tg, c)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			// Every engine's output must survive the audit oracle. OPT
			// computes makespans without recording per-edge charges, so the
			// accounting cross-check applies to everyone else.
			if err := audit.Check(tg, s, audit.Options{RequireAccounting: name != "OPT"}).Err(); err != nil {
				t.Fatalf("audit: %v", err)
			}

			// ScheduleContext with a live context is Schedule, bit for bit.
			s2, err := eng.ScheduleContext(context.Background(), tg, c)
			if err != nil {
				t.Fatalf("ScheduleContext: %v", err)
			}
			if diff := audit.DiffSchedules(tg, s, s2); diff != "" {
				t.Fatalf("ScheduleContext differs from Schedule: %s", diff)
			}

			// A cancelled context aborts instead of computing.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.ScheduleContext(ctx, tg, c); err != context.Canceled {
				t.Fatalf("cancelled ScheduleContext: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestEngineConformanceHarness sweeps seeded differential cases through
// audit.RunCase — which runs every Extended engine through the audit oracle
// and cmd/stress's metamorphic invariants (et ×8 with bandwidth ÷8 scales
// makespans exactly 8×; infinite bandwidth drives communication charges to
// zero) — as part of the regular test suite rather than only via the CLI.
func TestEngineConformanceHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness sweep")
	}
	for i := 0; i < 6; i++ {
		cs := audit.CaseAt(4242, i)
		if f := audit.RunCase(cs); f != nil {
			t.Errorf("case %d (%+v): %v", i, cs, f)
		}
	}
}

// TestEnginesAreFreshInstances: ByName and the set constructors must return
// fresh values — shared *core.LoCMPS instances across callers would let one
// caller's knob writes corrupt another's configuration.
func TestEnginesAreFreshInstances(t *testing.T) {
	a, err := sched.ByName("LoC-MPS")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.ByName("LoC-MPS")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*core.LoCMPS) == b.(*core.LoCMPS) {
		t.Fatal("ByName returned a shared *core.LoCMPS instance")
	}
}

// The registry's fixed orders are load-bearing (portfolio tie-breaking
// follows them); pin them.
func TestRegistryOrders(t *testing.T) {
	want := []string{"LoC-MPS", "iCASLB", "CPR", "CPA", "TASK", "DATA"}
	all := sched.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d engines, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name() != want[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, e.Name(), want[i])
		}
	}
	ext := sched.Extended()
	if len(ext) != len(want)+1 || ext[len(ext)-1].Name() != "M-HEFT" {
		t.Fatalf("Extended() = %d engines ending in %q, want All + M-HEFT", len(ext), ext[len(ext)-1].Name())
	}
	var _ schedule.Engine = ext[0] // the constructors hand out full Engines
}

// TestDuplicateRegistrationPanics: a second registration under an existing
// name must fail loudly — an engine's name is its wire identity, so silent
// shadowing would corrupt every cache keyed on it.
func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MustRegister did not panic")
		}
	}()
	sched.MustRegister("CPR", func() schedule.Engine { return sched.CPR{} })
}

// TestMustRegisterValidation: empty names and nil factories are refused.
func TestMustRegisterValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() schedule.Engine
	}{
		{"", func() schedule.Engine { return sched.CPR{} }},
		{"nil-factory", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustRegister(%q, factory=%v) did not panic", tc.name, tc.factory != nil)
				}
			}()
			sched.MustRegister(tc.name, tc.factory)
		}()
	}
}

package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"locmps/internal/core"
	"locmps/internal/sched"
)

// portfolioTestEngines is a small, fast engine set for service tests.
var portfolioTestEngines = []string{"LoC-MPS", "CPR", "M-HEFT"}

// TestPortfolioSchedule: a cold portfolio request races the engine set and
// returns the minimum-makespan schedule; the winner matches a direct
// single-engine run bit for bit.
func TestPortfolioSchedule(t *testing.T) {
	tg := testGraph(t, 24, 9100)
	c := testClusterP(8)
	svc := New(Config{Workers: 1})
	defer svc.Close()

	got, err := svc.Schedule(Request{Graph: tg, Cluster: c, Portfolio: portfolioTestEngines})
	if err != nil {
		t.Fatalf("Schedule(portfolio): %v", err)
	}
	st := svc.Stats()
	if st.PortfolioRaces != 1 || st.WinnerMisses != 1 || st.WinnerHits != 0 {
		t.Fatalf("stats after cold race: %+v", st)
	}

	// The winner must be the argmin over direct engine runs, and its
	// schedule identical to running that engine alone.
	bestName, bestMk := "", 0.0
	for _, name := range portfolioTestEngines {
		eng, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Schedule(tg, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bestName == "" || s.Makespan < bestMk {
			bestName, bestMk = name, s.Makespan
		}
		if got.Makespan > s.Makespan {
			t.Fatalf("portfolio makespan %v exceeds %s's %v", got.Makespan, name, s.Makespan)
		}
	}
	if got.Algorithm != bestName || got.Makespan != bestMk {
		t.Fatalf("portfolio returned %s/%v, direct argmin is %s/%v",
			got.Algorithm, got.Makespan, bestName, bestMk)
	}

	// An identical request is an L1 hit: same bytes, no second race.
	again, err := svc.Schedule(Request{Graph: tg, Cluster: c, Portfolio: portfolioTestEngines})
	if err != nil {
		t.Fatal(err)
	}
	if diff := equalSchedules(got, again, tg.M()); diff != "" {
		t.Fatalf("cached portfolio result differs: %s", diff)
	}
	st = svc.Stats()
	if st.CacheHits != 1 || st.PortfolioRaces != 1 {
		t.Fatalf("stats after repeat: %+v", st)
	}
}

// TestPortfolioWinnerRouting: after one full race, deadline-bounded repeat
// traffic (which bypasses the result cache) routes straight to the recorded
// winner — one engine run instead of a race — and returns the same
// schedule.
func TestPortfolioWinnerRouting(t *testing.T) {
	tg := testGraph(t, 24, 9200)
	c := testClusterP(8)
	svc := New(Config{Workers: 1})
	defer svc.Close()
	req := Request{Graph: tg, Cluster: c, Portfolio: portfolioTestEngines}

	cold, err := svc.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ar, err := svc.ScheduleAnytime(context.Background(), req,
			core.Budget{Deadline: time.Now().Add(time.Minute)})
		if err != nil {
			t.Fatalf("ScheduleAnytime(portfolio) %d: %v", i, err)
		}
		if ar.Truncated {
			t.Fatalf("run %d truncated under a one-minute deadline", i)
		}
		if diff := equalSchedules(cold, ar.Schedule, tg.M()); diff != "" {
			t.Fatalf("winner-routed schedule differs from the race's: %s", diff)
		}
	}
	st := svc.Stats()
	if st.PortfolioRaces != 1 {
		t.Fatalf("deadline repeats re-raced: %+v", st)
	}
	if st.WinnerHits != 3 {
		t.Fatalf("WinnerHits = %d, want 3: %+v", st.WinnerHits, st)
	}
}

// TestPortfolioWinnerPersistence: the winner record survives a restart
// through the DiskCache, so a fresh service routes deadline traffic without
// ever racing.
func TestPortfolioWinnerPersistence(t *testing.T) {
	tg := testGraph(t, 24, 9300)
	c := testClusterP(8)
	dir := t.TempDir()
	l2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: tg, Cluster: c, Portfolio: portfolioTestEngines}

	svc1 := New(Config{Workers: 1, L2: l2})
	cold, err := svc1.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	l2b, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Workers: 1, L2: l2b})
	defer svc2.Close()
	// Deadline requests bypass L1 and L2 result caches entirely, so the
	// only way this can avoid a race is the persisted winner record.
	ar, err := svc2.ScheduleAnytime(context.Background(), req,
		core.Budget{Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if diff := equalSchedules(cold, ar.Schedule, tg.M()); diff != "" {
		t.Fatalf("restarted winner-routed schedule differs: %s", diff)
	}
	st := svc2.Stats()
	if st.PortfolioRaces != 0 || st.WinnerHits != 1 {
		t.Fatalf("restarted service raced instead of routing: %+v", st)
	}
}

// TestPortfolioDeterminism: two fresh services given the same portfolio
// request commit the same winner and bit-identical schedules — nothing
// about racing (goroutine interleaving, finish order) may leak into the
// result. CI runs this under -race.
func TestPortfolioDeterminism(t *testing.T) {
	tg := testGraph(t, 30, 9400)
	c := testClusterP(16)
	req := Request{Graph: tg, Cluster: c, Portfolio: nil} // nil = all engines via loadgen paths
	req.Portfolio = []string{"LoC-MPS", "iCASLB", "CPR", "CPA", "TASK", "DATA", "M-HEFT"}

	run := func() *Service { return New(Config{Workers: 4}) }
	svc1 := run()
	first, err := svc1.Schedule(req)
	svc1.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		svc2 := run()
		again, err := svc2.Schedule(req)
		svc2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if diff := equalSchedules(first, again, tg.M()); diff != "" {
			t.Fatalf("run %d: portfolio result nondeterministic: %s", i, diff)
		}
	}
}

// TestPortfolioAnytimeRules: MaxIterations budgets are engine-specific and
// rejected for portfolios; deadline-only budgets are accepted for both
// portfolios and one-shot baselines (fresh uncached runs).
func TestPortfolioAnytimeRules(t *testing.T) {
	tg := testGraph(t, 12, 9500)
	c := testClusterP(4)
	svc := New(Config{Workers: 1})
	defer svc.Close()

	_, err := svc.ScheduleAnytime(context.Background(),
		Request{Graph: tg, Cluster: c, Portfolio: portfolioTestEngines},
		core.Budget{MaxIterations: 4})
	if !errors.Is(err, ErrAnytimeUnsupported) {
		t.Fatalf("portfolio + MaxIterations: err = %v, want ErrAnytimeUnsupported", err)
	}

	// A one-shot baseline under a deadline budget: allowed, uncached, and
	// equal to its direct run.
	ar, err := svc.ScheduleAnytime(context.Background(),
		Request{Graph: tg, Cluster: c, Options: Options{Algorithm: "CPR"}},
		core.Budget{Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatalf("baseline + deadline: %v", err)
	}
	direct, err := sched.CPR{}.Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	if diff := equalSchedules(direct, ar.Schedule, tg.M()); diff != "" {
		t.Fatalf("deadline baseline differs from direct run: %s", diff)
	}
	if st := svc.Stats(); st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Fatalf("deadline baseline entered the cache: %+v", st)
	}
}

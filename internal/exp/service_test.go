package exp

import (
	"reflect"
	"testing"

	"locmps/internal/serve"
)

// TestFiguresServiceRouted: attaching a scheduling service must not change
// a figure — the service's schedules are bit-identical to direct runs — and
// re-running a figure on the same service must be answered from the result
// cache.
func TestFiguresServiceRouted(t *testing.T) {
	opt := tinySuite()
	direct, err := Fig4('a', opt)
	if err != nil {
		t.Fatal(err)
	}

	svc := serve.New(serve.Config{Workers: 2, QueueDepth: 64, CacheEntries: 512})
	defer svc.Close()
	opt.Service = svc
	routed, err := Fig4('a', opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, routed) {
		t.Errorf("service-routed fig4a differs from direct run:\n direct: %+v\n routed: %+v", direct, routed)
	}
	cold := svc.Stats()
	if cold.Scheduled == 0 {
		t.Fatal("no cold runs went through the service")
	}

	again, err := Fig4('a', opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, again) {
		t.Error("cached fig4a differs from direct run")
	}
	warm := svc.Stats()
	if warm.Scheduled != cold.Scheduled {
		t.Errorf("re-running the figure triggered %d new cold runs", warm.Scheduled-cold.Scheduled)
	}
	if warm.CacheHits == cold.CacheHits {
		t.Error("re-running the figure produced no cache hits")
	}
}

// TestFig6ServiceRouted covers the scheduling-time figure path, which needs
// the full schedule (not just the makespan) from the service.
func TestFig6ServiceRouted(t *testing.T) {
	opt := tinySuite()
	perfDirect, _, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(serve.Config{Workers: 1, QueueDepth: 64, CacheEntries: 256})
	defer svc.Close()
	opt.Service = svc
	perfRouted, times, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perfDirect, perfRouted) {
		t.Error("service-routed fig6a differs from direct run")
	}
	for _, s := range times.Series {
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("negative scheduling time in %s", s.Name)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/serve"
	"locmps/internal/stream"
	"locmps/internal/synth"
)

// bandwidth is the paper's Fast Ethernet (bytes/s), used by every workload.
const bandwidth = 12.5e6

// request is one pre-encoded schedule request.
type request struct {
	Req  serve.Request
	Body []byte
}

func (r request) graph() *model.TaskGraph { return r.Req.Graph }

// topologies are the synthetic DAG shapes the HTTP workloads draw from.
var topologies = []string{"layered", "fork-join", "series-parallel"}

// makeGraph builds one synthetic DAG of the given shape.
func makeGraph(topo string, tasks int, ccr float64, seed int64) (*model.TaskGraph, error) {
	p := synth.DefaultParams()
	p.Tasks, p.CCR, p.Seed = tasks, ccr, seed
	switch topo {
	case "layered":
		return synth.Layered(p, max(2, tasks/6))
	case "fork-join":
		return synth.ForkJoin(p)
	case "series-parallel":
		return synth.SeriesParallel(p)
	}
	return nil, fmt.Errorf("unknown topology %q", topo)
}

// encodeRequest builds and encodes a request for graph tg on P processors.
func encodeRequest(tg *model.TaskGraph, P int, opts serve.Options) (request, error) {
	req := serve.Request{Graph: tg, Cluster: model.Cluster{P: P, Bandwidth: bandwidth, Overlap: true}, Options: opts}
	w, err := serve.WireFromRequest(req, core.Budget{})
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(w)
	if err != nil {
		return request{}, err
	}
	return request{Req: req, Body: body}, nil
}

// coldSizes are the (tasks, processors) classes of the cold workload. Cold
// LoC-MPS searches at these sizes take roughly 5-500 ms on a 2-core host,
// so a run completes several hundred requests: search times spread widely
// from graph to graph, and only many of them give a median that repeats.
var coldSizes = [][2]int{{16, 16}, {24, 16}, {16, 32}, {24, 32}}

// coldRequest is the i-th request of the cold workload. The strata (shape,
// CCR, size) cycle with i, so every run of any length sees the same mix and
// the seed only changes the graphs inside each stratum. No two requests
// share a key: the graph seed differs per request.
func coldRequest(seed int64, i int) (request, error) {
	topo := topologies[i%3]
	ccr := []float64{0.1, 1}[(i/3)%2]
	size := coldSizes[(i/6)%len(coldSizes)]
	tg, err := makeGraph(topo, size[0], ccr, seed*1_000_003+int64(i))
	if err != nil {
		return request{}, err
	}
	return encodeRequest(tg, size[1], serve.Options{})
}

// zipfClass sizes the primed keys of the zipf workload: request bodies
// from about 6 KB to 90 KB (tasks x P spans 16x). Only the smallest class
// runs LoC-MPS, and it is small because its search time differs from graph
// to graph and would make set-up time depend on the seed; the larger ones
// request a baseline engine so that priming them stays a small share of
// the run — a response-cache hit never reaches the engine, so the hit path
// is the same whichever one it was.
var zipfClass = []struct {
	Tasks, P int
	Engine   string
}{
	{16, 16, ""},
	{32, 32, "M-HEFT"},
	{40, 64, "CPA"},
	{64, 64, "M-HEFT"},
}

// zipfKeys is the number of primed keys.
const zipfKeys = 48

// zipfKey is primed key k (k is also its Zipf popularity rank).
func zipfKey(seed int64, k int) (request, error) {
	c := zipfClass[k%len(zipfClass)]
	tg, err := makeGraph(topologies[k%3], c.Tasks, []float64{0.1, 1}[(k/3)%2], seed*1_000_033+int64(k))
	if err != nil {
		return request{}, err
	}
	return encodeRequest(tg, c.P, serve.Options{Algorithm: c.Engine})
}

// freshKey is the f-th never-seen key of the zipf trickle: a small layered
// DAG whose cold LoC-MPS search takes a few milliseconds. Both senders
// wait on it (the first send runs the search, the repeat coalesces onto
// it), so a larger or more variable search would stall the open loop
// itself and the p99 would measure the trickle instead of hit serving.
func freshKey(seed int64, f int) (request, error) {
	tg, err := makeGraph("layered", 12, 1, seed*1_000_037+int64(f)+1<<40)
	if err != nil {
		return request{}, err
	}
	return encodeRequest(tg, 8, serve.Options{})
}

// streamCluster hosts the stream workload.
var streamCluster = model.Cluster{P: 64, Bandwidth: bandwidth, Overlap: true}

// streamScenario is the j-th stream of the stream workload: Poisson DAG
// arrivals, one task failure per job ten time units after it arrives, a
// shrink to half the machine and a grow back. Streams are short so that a
// run averages over many of them, and every job has the same task count:
// the seed still draws the arrival times and the graphs, but no longer
// the job sizes, whose spread made the replan cost swing from seed to
// seed.
func streamScenario(seed int64, j int) (stream.Config, error) {
	jobs, err := stream.PoissonJobs(stream.PoissonOpts{
		Jobs: 8, Rate: 0.03, MinTasks: 11, MaxTasks: 11,
		Seed: seed*7919 + int64(j),
	})
	if err != nil {
		return stream.Config{}, err
	}
	cfg := stream.Config{Cluster: streamCluster, Jobs: jobs}
	for i, job := range jobs {
		cfg.Failures = append(cfg.Failures, stream.Fail{Time: job.Arrival + 10, Job: i})
	}
	cfg.Resizes = []stream.Resize{
		{Time: jobs[2].Arrival + 5, Procs: streamCluster.P / 2},
		{Time: jobs[5].Arrival + 5, Procs: streamCluster.P},
	}
	return cfg, nil
}

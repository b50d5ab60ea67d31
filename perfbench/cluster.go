package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gesmc"
	"gesmc/internal/service"
	"gesmc/wire"
)

// mix is the cluster-mixed request mix with each class's share of
// arrivals. Hot repeats hit the engine pools; every other class
// compiles a fresh engine, so pool hits run beside misses the way reads
// run beside writes.
var mix = []struct {
	class  string
	weight float64
}{
	{"hot", 0.40},       // repeats of a few hot degree sequences
	{"cold", 0.15},      // distinct power-law targets: realize, gate, compile, burn in
	{"directed", 0.10},  // in/out-degree targets
	{"bipartite", 0.10}, // bipartite degree targets
	{"exact", 0.10},     // uniformity "exact", bounded degrees
	{"connected", 0.10}, // connected:true over an explicit edge list
	{"resume", 0.05},    // resume_from > 0 on a hot sequence
}

// mixSamples is the ensemble size of every cluster-mixed request.
const mixSamples = 2

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // since the start of the measured window
	class string
	req   wire.SampleRequest
	exp   *expect
}

// runCluster is the cluster-mixed workload: an open loop on a seeded
// arrival schedule, sent through an in-process cluster.Coordinator over
// two in-process shards on loopback HTTP. Each shard has a worker
// budget of one, so its admission queue fills whenever both in-flight
// requests land on it. This is the only workload that runs the compile,
// pool, scheduler, coordinator, exact, digraph and constraint paths.
func runCluster(ctx context.Context, r *run) error {
	hot := make([]arrival, r.sc.hotKeys)
	for i := range hot {
		degrees := powerLawDegrees(r.rng, r.sc.mixN)
		hot[i] = arrival{
			class: "hot",
			req:   wire.SampleRequest{Degrees: degrees, Seed: r.rng.Uint64(), Samples: mixSamples},
			exp:   undirected(degrees, "mcmc"),
		}
	}
	r.main = mainTarget{degrees: hot[0].req.Degrees, alg: gesmc.ParGlobalES, workers: 1}

	// Set-up: boot the shards and the coordinator, and warm the pool of
	// every hot key's owner.
	var rg *rig
	for range r.sc.setupReps {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		var err error
		if rg, err = startRig(ctx, 2, service.Config{WorkerBudget: 1}); err != nil {
			return err
		}
		for _, h := range hot {
			warm := h
			warm.req.Samples = 1
			_, _, t := r.clusterRequest(ctx, rg, &warm, time.Now(), nil)
			r.count(t)
		}
		r.setup = append(r.setup, time.Since(t0))
	}
	defer rg.close()

	arrivals := schedule(r, hot)
	before, err := rg.coord.Metrics(ctx)
	if err != nil {
		return err
	}
	r.openLoop(ctx, rg, arrivals)
	after, err := rg.coord.Metrics(ctx)
	if err != nil {
		return err
	}
	rt := routingBetween(before, after)
	r.routing = &rt
	return nil
}

// schedule draws the arrivals of the measured window: rate·seconds
// requests at exponential gaps rescaled to span the window, classes in
// exact mix proportions in seeded order, and a fresh target for every
// class but hot and resume. Fixing the count and the proportions keeps
// one seed's load equal to another's.
func schedule(r *run, hot []arrival) []arrival {
	n := max(int(r.sc.rate*r.sc.seconds.Seconds()), 1)
	var classes []string
	for _, c := range mix {
		for range int(c.weight * float64(n)) {
			classes = append(classes, c.class)
		}
	}
	for len(classes) < n {
		classes = append(classes, mix[0].class)
	}
	r.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	at := make([]float64, n)
	sum := 0.0
	for i := range at {
		sum += r.rng.ExpFloat64()
		at[i] = sum
	}
	out := make([]arrival, n)
	for i := range out {
		out[i] = newArrival(r, classes[i], hot)
		out[i].due = time.Duration(at[i] / sum * float64(r.sc.seconds))
	}
	return out
}

func newArrival(r *run, class string, hot []arrival) arrival {
	n := r.sc.mixN
	seed := r.rng.Uint64()
	switch class {
	case "hot":
		return hot[r.rng.IntN(len(hot))]
	case "resume":
		a := hot[r.rng.IntN(len(hot))]
		a.class = class
		a.req.Samples = 2 * mixSamples
		a.req.ResumeFrom = mixSamples
		return a
	case "directed":
		out, in := arcDegrees(n, randomArcs(r.rng, n, 0, n, 3*n))
		return arrival{class: class,
			req: wire.SampleRequest{OutDegrees: out, InDegrees: in, Seed: seed, Samples: mixSamples},
			exp: &expect{nodes: n, directed: true, out: out, in: in, uniformity: "mcmc"}}
	case "bipartite":
		left, right := n/2, n/2
		out, in := arcDegrees(left+right, randomArcs(r.rng, left, left, right, 2*n))
		return arrival{class: class,
			req: wire.SampleRequest{BipartiteLeft: out[:left], BipartiteRight: in[left:], Seed: seed, Samples: mixSamples},
			exp: &expect{nodes: left + right, directed: true, out: out, in: in, uniformity: "mcmc"}}
	case "exact":
		degrees := boundedDegrees(r.rng, r.sc.exactN)
		return arrival{class: class,
			req: wire.SampleRequest{Degrees: degrees, Uniformity: "exact", Seed: seed, Samples: mixSamples},
			exp: undirected(degrees, "exact")}
	case "connected":
		edges := connectedEdges(r.rng, n, 2*n)
		e := undirected(edgeDegrees(n, edges), "mcmc")
		e.connected = true
		return arrival{class: class,
			req: wire.SampleRequest{Edges: edges, Nodes: n, Connected: true, Seed: seed, Samples: mixSamples},
			exp: e}
	default:
		degrees := powerLawDegrees(r.rng, n)
		return arrival{class: "cold",
			req: wire.SampleRequest{Degrees: degrees, Seed: seed, Samples: mixSamples},
			exp: undirected(degrees, "mcmc")}
	}
}

// openLoop sends every arrival when it falls due, with at most nproc
// requests in flight. A request due while every slot is busy waits for
// one and is still timed from its due time.
func (r *run) openLoop(ctx context.Context, rg *rig, arrivals []arrival) {
	slots := make(chan struct{}, r.nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arrivals {
		a := &arrivals[i]
		time.Sleep(time.Until(start.Add(a.due)))
		slots <- struct{}{}
		r.addLag(time.Since(start) - a.due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			q, gaps, t := r.clusterRequest(ctx, rg, a, start.Add(a.due), r.tracerFor(i))
			r.record(q, gaps, t, true)
			if a.class == "cold" && q.first > 0 {
				r.addBurnin(q.first)
			}
		}(i)
	}
	wg.Wait()
	r.wall = time.Since(start)
}

// clusterRequest sends one arrival through the coordinator and verifies
// each line as it arrives. Times count from due.
func (r *run) clusterRequest(ctx context.Context, rg *rig, a *arrival, due time.Time, tr *tracer) (request, []time.Duration, tally) {
	var v verifier
	q := request{traced: tr != nil}
	t := tally{expected: a.req.Samples - a.req.ResumeFrom}
	var gaps []time.Duration
	var last time.Time
	var traceID string
	root := tr.begin(0, 0, "request")
	call := tr.begin(root.Trace, root.ID, "coordinator.sample")
	err := rg.coord.Sample(ctx, &a.req, func(ln wire.Line) error {
		now := time.Now()
		if t.lines == 0 {
			q.first = now.Sub(due)
		} else {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if traceID == "" && ln.Stats != nil {
			traceID = ln.Stats.TraceID
		}
		vs := tr.begin(root.Trace, call.ID, "verify")
		t.line(r, &v, a.exp, &ln, a.req.ResumeFrom+t.lines)
		tr.end(vs)
		return nil
	})
	tr.end(call)
	q.total = time.Since(due)
	tr.end(root)
	if err != nil {
		r.fail(fmt.Errorf("%s request: %w", a.class, err))
	}
	if tr != nil && traceID != "" {
		r.collectSystemSpans(traceID, rg.coord, rg.services()...)
	}
	return q, gaps, t
}

// routing is the coordinator's placement over a window.
type routing struct {
	owner, spill       float64 // shares of routed requests
	failovers, retries int64   // mid-stream failovers; shard attempts beyond one per request
}

func routingBetween(before, after wire.Metrics) routing {
	b, a := before.Cluster, after.Cluster
	if a == nil {
		return routing{}
	}
	if b == nil {
		b = &wire.ClusterMetrics{}
	}
	owner := a.RoutedOwner - b.RoutedOwner
	spill := a.RoutedSpill - b.RoutedSpill
	routed := owner + spill + a.RoutedReplica - b.RoutedReplica
	var attempts int64
	for _, s := range a.Shards {
		attempts += s.Requests
	}
	for _, s := range b.Shards {
		attempts -= s.Requests
	}
	rt := routing{failovers: a.MidstreamFailovers - b.MidstreamFailovers, retries: max(attempts-routed, 0)}
	if routed > 0 {
		rt.owner = float64(owner) / float64(routed)
		rt.spill = float64(spill) / float64(routed)
	}
	return rt
}

// Package gesmc provides uniform sampling of simple graphs with a
// prescribed degree sequence via edge switching Markov chains,
// implementing the algorithms of Allendorf, Meyer, Penschuck and Tran,
// "Parallel Global Edge Switching for the Uniform Sampling of Simple
// Graphs with Prescribed Degrees" (IPDPS 2022 / JPDC 2023).
//
// The package is built around a reusable, stateful Sampler: NewSampler
// compiles a target graph once into the selected algorithm's working
// state (hash-based edge set, dependency table, RNG streams), after
// which Step, Sample, and Ensemble advance the same Markov chain
// without rebuilding anything. One Sampler drives all three supported
// target classes — undirected graphs (*Graph), directed graphs
// (*DiGraph), and bipartite graphs (FromBipartiteDegrees, represented
// as digraphs).
//
// Every algorithm advances through one resumable engine loop, and
// every parallel chain executes through one generic superstep kernel
// (dependency tuples, round-based decisions, pessimistic worst-case
// scheduling, identical rounds instrumentation — see DESIGN.md), so
// WithWorkers applies uniformly. All tiers share one counter type:
// the Stats of consecutive Step calls add up to Sampler.Stats, and
// each increment's MaxRounds is the maximum over its own supersteps.
//
// The kernel runs on a persistent gang of worker goroutines owned by
// the sampler's engine: supersteps reuse the parked gang instead of
// spawning goroutines, and the kernel itself performs no steady-state
// heap allocations (chains still allocate a few objects per superstep
// for their random permutations). Call Sampler.Close to release the
// gang deterministically (a finalizer reclaims leaked ones).
//
// The algorithms:
//
//	Algorithm        chain     targets              parallel  notes
//	SeqES            ES-MC     undirected+directed  no        §5 hash set + edge array
//	SeqGlobalES      G-ES-MC   undirected+directed  no        Definition 3
//	ParES            ES-MC     undirected           exact     Algorithm 2
//	ParGlobalES      G-ES-MC   all                  exact     Algorithm 3 — headline, default
//	Curveball        trades    undirected           exact     batched disjoint trades
//	GlobalCurveball  trades    undirected           exact     superstep global trades
//	Exact            i.i.d.    undirected           no        provably uniform rejection sampler
//
// "Exact" parallel chains are bit-identical to their sequential
// references: given the same switch (or trade) sequence they produce
// the same edge list at every worker count, which the differential test
// suites verify for workers 1, 2, 4 and 8. The trade chains use the
// superstep formulation of DESIGN.md §4 (per-batch edge ownership), so
// their results are additionally invariant under the worker count.
//
// Quick start — one approximately uniform sample:
//
//	g, err := gesmc.GeneratePowerLaw(1<<16, 2.5, 1)
//	if err != nil { ... }
//	s, err := gesmc.NewSampler(g,
//		gesmc.WithAlgorithm(gesmc.ParGlobalES),
//		gesmc.WithWorkers(runtime.NumCPU()),
//		gesmc.WithSeed(1))
//	if err != nil { ... }
//	stats, err := s.Sample() // burn-in; g now holds the sample
//
// Ensembles — the null-model workload of hundreds of thinned samples
// per input graph — stream through the same engine:
//
//	for smp := range s.Ensemble(ctx, 100) {
//		if smp.Err != nil { ... }
//		use(smp.Graph) // deep copy; smp.Stats covers its supersteps
//	}
//
// The first sample pays the burn-in (default: 10 switch attempts per
// edge); each further sample only a thinning interval. AnalyzeMixing
// runs the paper's §6.1 autocorrelation/BIC diagnostic on any served
// algorithm: it compiles the chain over a clone of the graph exactly as
// NewSampler would, so the curve measures the chain a Sampler runs.
//
//	res, err := gesmc.AnalyzeMixing(g, gesmc.ParGlobalES, 256, 1)
//	if err != nil { ... } // at least 16 supersteps and 2 edges
//	k := res.FirstThinningBelow(0.05)
//
// FirstThinningBelow's result is the natural input to WithThinning:
// thinning measured this way is typically several times shorter than a
// full burn-in, which (together with engine reuse) is where the
// ensemble throughput win over repeated one-shot runs comes from.
//
// Constrained sampling restricts the state space beyond the degree
// sequence (the null models of Milo et al. and Tabourier et al.):
//
//	s, err := gesmc.NewSampler(g, gesmc.WithConstraint(gesmc.Connected()))
//
// samples only connected realizations — every Ensemble draw is
// connected, with disconnecting switches vetoed (sequential chains,
// via an incremental spanning-forest certificate) or rolled back
// (parallel chains, speculate-then-recertify), and compound k-switch
// escape moves keeping the chain irreducible when single switches
// stall. ForbiddenEdges, ProtectedEdges, and NodeClasses are local
// constraints evaluated inside the kernel's decide phase; they keep
// constrained parallel runs bit-identical across worker counts.
// Constraints apply to SeqES, SeqGlobalES, ParES, and ParGlobalES
// (plus all directed chains, where Connected means weakly connected);
// Stats reports ConstraintVetoes and the escape counters.
// Connectivity metrics back the same workload: Graph.IsConnected,
// Graph.LargestComponent, and their DiGraph counterparts.
//
// The Exact algorithm is not a Markov chain at all: it draws
// independent, provably uniform realizations of the target's degree
// sequence by pairing-model generation with rejection (DESIGN.md §14).
// Burn-in and thinning do not apply — passing WithBurnIn, WithThinning,
// or WithSwapsPerEdge returns ErrExactSchedule — and constraints are
// unsupported. Exactness is paid for in acceptance rate, so the tier
// gates on the regime λ+λ² ≤ 6 (λ = Σd(d-1)/(2Σd)) and returns
// ErrExactUnsupported beyond it; callers fall back to an MCMC chain
// explicitly. Stats reports the rejection ledger (Restarts,
// LoopDefects, MultiDefects). Over the wire, requests select the tier
// with "uniformity": "exact", and every streamed line's stats block
// is labeled with the tier that produced it.
//
// Functional options (WithAlgorithm, WithWorkers, WithSeed,
// WithThinning, WithBurnIn, WithLoopProb, WithConstraint,
// WithProgress, ...) validate eagerly and return the typed errors of
// errors.go; context cancellation is honored at superstep boundaries,
// always leaving the target a valid simple graph with the original
// degrees.
//
// Construction helpers cover edge lists (NewGraph, ReadGraph), degree
// sequences (FromDegrees via Havel-Hakimi, FromInOutDegrees via
// Kleitman-Wang, FromBipartiteDegrees), and generators (G(n,p),
// power-law, regular, grid). Graph I/O is part of the public API:
// WriteEdgeList/ReadEdgeList/ReadArcList exchange text edge lists for
// both target classes (directed files carry a "% directed" marker),
// and the gesmc/wire subpackage defines the JSON formats of the
// sampling service.
//
// The sampling service (internal/service, daemon cmd/gesmcd) serves
// ensembles over HTTP: POST /v1/sample streams one NDJSON line per
// sample as it is produced, requests share a bounded global worker
// budget with FIFO admission control, and an engine pool reuses
// compiled samplers — persistent worker gangs included — across
// requests with the same (target, algorithm, workers, seed,
// constraints) identity. Requests opt into constrained ensembles with
// "connected": true and "forbidden_edges"; the CLI mirrors the former
// as gesmc -connected. Every Algorithms() entry is served.
// Sampler.Close is idempotent, and a closed sampler's methods return
// ErrClosed, so pooled engines evict safely. See DESIGN.md §9.
//
// All operations are deterministic for a fixed seed, algorithm, and
// worker count; the sequential chains and both Curveball chains are
// additionally independent of the worker count.
package gesmc

// Command gesmc randomizes a simple graph while preserving its degree
// sequence, using the switching Markov chains of the paper. With
// -samples it streams a whole thinned ensemble through one reusable
// sampling engine (the null-model workload). Input is a text edge list
// (undirected, or a directed arc list with -directed), read via the
// public gesmc.ReadEdgeList/ReadArcList codecs; output is either text
// edge lists or, with -format ndjson, the sampling service's NDJSON
// stream (one wire.Line per sample).
//
// Examples:
//
//	gesmc -gen pld:n=65536,gamma=2.5 -algo ParGlobalES -workers 8 -out random.txt
//	gesmc -in graph.txt -swaps 30 -seed 7 -out shuffled.txt -metrics
//	gesmc -in arcs.txt -directed -samples 10 -format ndjson
//	gesmc -in graph.txt -samples 100 -thinning 4 -out 'sample-%d.txt'
//	gesmc -in graph.txt -connected -samples 50 -format ndjson -stats
//	cat graph.txt | gesmc -in - -samples 5 -format ndjson | jq .stats.attempted
//	gesmc -in graph.txt -samples 20 -server 127.0.0.1:8742 -format ndjson
//	gesmc -in graph.txt -uniformity exact -samples 100 -format ndjson
//
// With -uniformity exact, samples are exactly uniform i.i.d. draws
// (the rejection tier, undirected bounded-degree targets only) instead
// of Markov-chain states: -swaps/-supersteps/-thinning/-connected do
// not apply, and a degree sequence outside the tractable regime exits
// with code 2 and a message naming the -uniformity mcmc fallback —
// the CLI never reroutes silently.
//
// With -server URL, sampling runs on a gesmcd daemon (or cluster
// coordinator) instead of in-process: the loaded target ships as an
// explicit edge list in a wire.SampleRequest and the NDJSON stream
// comes back line by line, so the pooled burned-in engines (and, via a
// coordinator, the whole shard ring) serve the CLI too.
//
// With -connected, sampling is restricted to connected graphs (the
// connectivity-preserving null model): the input must be connected,
// and every emitted sample is.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gesmc"
	"gesmc/internal/graph"
	"gesmc/internal/service"
	"gesmc/wire"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input edge list file ('-' for stdin)")
		directed  = flag.Bool("directed", false, "treat -in as a directed arc list (tail head pairs)")
		genSpec   = flag.String("gen", "", "generate input: gnp:n=..,p=.. | pld:n=..,gamma=.. | reg:n=..,d=.. | grid:r=..,c=..")
		outPath   = flag.String("out", "", "write result to file ('-' for stdout); with -samples > 1 and -format edgelist, a pattern containing %d")
		format    = flag.String("format", "edgelist", "output format: edgelist | ndjson (one wire.Line per sample)")
		algoName  = flag.String("algo", "ParGlobalES", fmt.Sprint("algorithm, one of ", gesmc.Algorithms()))
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers P")
		swaps     = flag.Float64("swaps", 10, "switch attempts per edge (burn-in)")
		steps     = flag.Int("supersteps", 0, "explicit burn-in superstep count (overrides -swaps)")
		samples   = flag.Int("samples", 1, "number of thinned samples to draw through one reused engine")
		thinning  = flag.Int("thinning", 0, "supersteps between samples (0 = same as burn-in)")
		seed      = flag.Uint64("seed", 1, "random seed")
		stats     = flag.Bool("stats", false, "print run statistics")
		metrics   = flag.Bool("metrics", false, "print graph metrics before and after (undirected targets)")
		connected = flag.Bool("connected", false, "constrain sampling to connected graphs (the input must be connected)")
		server    = flag.String("server", "", "forward sampling to a gesmcd daemon or coordinator at this URL instead of sampling in-process")
		retries   = flag.Int("retries", 2, "with -server: retries for transient failures (0 disables); a stream cut mid-way resumes from the last delivered sample")

		uniformity = flag.String("uniformity", "mcmc", "sampling tier: mcmc (asymptotically uniform chains) | exact (exactly uniform i.i.d. draws; undirected bounded-degree targets)")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *format != "edgelist" && *format != "ndjson" {
		fatal(fmt.Errorf("unknown -format %q (want edgelist or ndjson)", *format))
	}
	// -algo Exact and -uniformity exact are the same request; normalize
	// to one path so both spellings get the same validation.
	if *algoName == "Exact" {
		*uniformity = "exact"
	}
	switch *uniformity {
	case "mcmc":
	case "exact":
		if explicit["algo"] && *algoName != "Exact" {
			fatal(fmt.Errorf("-uniformity exact contradicts -algo %s", *algoName))
		}
		*algoName = "Exact"
		// Exact draws are i.i.d.: a chain schedule on the command line
		// is a misdirected MCMC invocation, not something to ignore.
		for _, name := range []string{"swaps", "supersteps", "thinning"} {
			if explicit[name] {
				fatal(fmt.Errorf("-%s does not apply to -uniformity exact (draws are i.i.d.)", name))
			}
		}
		if *connected {
			fatal(fmt.Errorf("-connected is not supported by -uniformity exact; use the MCMC tier"))
		}
	default:
		fatal(fmt.Errorf("unknown -uniformity %q (want exact or mcmc)", *uniformity))
	}
	target, err := loadTarget(*inPath, *genSpec, *seed, *directed)
	if err != nil {
		fatal(err)
	}
	alg, err := gesmc.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}

	if *server != "" {
		req := remoteRequest(target, *algoName, *uniformity, max(*workers, 1), *seed, *samples, *steps, *thinning, *swaps, *connected)
		if err := runRemote(*server, req, *format, *outPath, *stats, *retries); err != nil {
			fmt.Fprintln(os.Stderr, "gesmc:", err)
			os.Exit(exitCode(err))
		}
		return
	}

	opts := []gesmc.Option{
		gesmc.WithAlgorithm(alg),
		gesmc.WithWorkers(max(*workers, 1)),
		gesmc.WithSeed(*seed),
	}
	if *uniformity != "exact" {
		opts = append(opts, gesmc.WithSwapsPerEdge(*swaps))
	}
	if *steps > 0 {
		opts = append(opts, gesmc.WithBurnIn(*steps))
	}
	if *thinning > 0 {
		opts = append(opts, gesmc.WithThinning(*thinning))
	}
	if *connected {
		opts = append(opts, gesmc.WithConstraint(gesmc.Connected()))
	}
	sampler, err := gesmc.NewSampler(target, opts...)
	if err != nil {
		fatal(err)
	}
	defer sampler.Close()

	ug, _ := target.(*gesmc.Graph) // nil for directed targets
	dg, _ := target.(*gesmc.DiGraph)
	if *metrics && ug != nil {
		printMetrics("before", ug)
	}

	ndjsonOut, closeNDJSON, err := openNDJSON(*outPath, *format)
	if err != nil {
		fatal(err)
	}
	finishNDJSON := func() {
		// Deferred write errors (full disk, NFS) surface at Close; an
		// unchecked close would exit 0 with a truncated stream.
		if err := closeNDJSON(); err != nil {
			fatal(err)
		}
	}

	if *samples <= 1 {
		st, err := sampler.Sample()
		if err != nil {
			fatal(err)
		}
		if *metrics && ug != nil {
			printMetrics("after", ug)
		}
		if *stats {
			printStats(st)
		}
		switch {
		case ndjsonOut != nil:
			smp := gesmc.Sample{Graph: ug, DiGraph: dg, Stats: st}
			if err := wire.EncodeLine(ndjsonOut, wire.FromSample(smp)); err != nil {
				fatal(err)
			}
			finishNDJSON()
		case *outPath != "":
			if err := writeTarget(*outPath, target); err != nil {
				fatal(err)
			}
		}
		return
	}

	if ndjsonOut == nil && *outPath != "" && !strings.Contains(*outPath, "%d") {
		fatal(fmt.Errorf("-samples %d needs an -out pattern containing %%d (or -format ndjson)", *samples))
	}
	for smp := range sampler.Ensemble(context.Background(), *samples) {
		if smp.Err != nil {
			fatal(smp.Err)
		}
		if *stats {
			printStats(smp.Stats)
		}
		switch {
		case ndjsonOut != nil:
			if err := wire.EncodeLine(ndjsonOut, wire.FromSample(smp)); err != nil {
				fatal(err)
			}
		case *outPath != "":
			var t gesmc.Target
			if smp.Graph != nil {
				t = smp.Graph
			} else {
				t = smp.DiGraph
			}
			if err := writeTarget(strings.ReplaceAll(*outPath, "%d", strconv.Itoa(smp.Index)), t); err != nil {
				fatal(err)
			}
		}
	}
	if ndjsonOut != nil {
		finishNDJSON()
	}
	if *metrics && ug != nil {
		printMetrics("after", ug)
	}
	if *stats {
		total := sampler.Stats()
		fmt.Fprintf(os.Stderr, "ensemble: %d samples in %d supersteps (engine built once), total time=%v\n",
			sampler.Samples(), sampler.Supersteps(), total.Duration)
	}
}

// remoteRequest converts the loaded target plus the sampling flags
// into the wire request a daemon executes. The target always ships as
// an explicit edge (or arc) list: that is the one spec every loaded or
// generated input reduces to.
func remoteRequest(target gesmc.Target, algo, uniformity string, workers int, seed uint64,
	samples, burnIn, thinning int, swaps float64, connected bool) *wire.SampleRequest {
	req := &wire.SampleRequest{
		Algorithm:    algo,
		Workers:      workers,
		Seed:         seed,
		Samples:      max(samples, 1),
		Thinning:     thinning,
		SwapsPerEdge: swaps,
		Connected:    connected,
	}
	if burnIn > 0 {
		// -supersteps overrides -swaps, exactly like the local path.
		req.BurnIn = burnIn
		req.SwapsPerEdge = 0
	}
	if uniformity == "exact" {
		// The exact tier rejects chain schedules; the remaining
		// nonzero values here are CLI defaults, not user choices
		// (explicit ones were refused before dialing out).
		req.Uniformity = "exact"
		req.BurnIn, req.Thinning, req.SwapsPerEdge = 0, 0, 0
	}
	switch t := target.(type) {
	case *gesmc.Graph:
		req.Nodes, req.Edges = t.N(), t.Edges()
	case *gesmc.DiGraph:
		req.Nodes, req.Edges, req.Directed = t.N(), t.Arcs(), true
	}
	return req
}

// runRemote streams the request through a RemoteBackend and writes the
// samples in the chosen format, mirroring the in-process output paths.
// retries > 0 enables the backend's retry policy with resume: transient
// pre-stream failures back off and re-issue, and a stream cut mid-way
// continues from the cursor of the last delivered sample.
func runRemote(serverURL string, req *wire.SampleRequest, format, outPath string, stats bool, retries int) error {
	if format == "edgelist" && req.Samples > 1 && outPath != "" && !strings.Contains(outPath, "%d") {
		return fmt.Errorf("-samples %d needs an -out pattern containing %%d (or -format ndjson)", req.Samples)
	}
	ndjsonOut, closeNDJSON, err := openNDJSON(outPath, format)
	if err != nil {
		return err
	}
	remote := service.NewRemoteBackend(serverURL, nil)
	if retries > 0 {
		remote = remote.WithRetry(service.RetryPolicy{MaxAttempts: retries + 1, Resume: true})
	}
	err = remote.Sample(context.Background(), req, func(ln wire.Line) error {
		if ln.Error != "" {
			// A terminal in-band marker: the backend reports it as a
			// *StreamError once the stream ends, which carries the typed
			// failure out of this function — don't abort the decode here.
			if ndjsonOut != nil {
				return wire.EncodeLine(ndjsonOut, ln)
			}
			return nil
		}
		if stats && ln.Stats != nil {
			printWireStats(ln.Stats)
		}
		switch {
		case ndjsonOut != nil:
			return wire.EncodeLine(ndjsonOut, ln)
		case outPath != "":
			g, dg, err := ln.Graph()
			if err != nil {
				return err
			}
			var t gesmc.Target
			if g != nil {
				t = g
			} else {
				t = dg
			}
			path := outPath
			if req.Samples > 1 {
				path = strings.ReplaceAll(outPath, "%d", strconv.Itoa(ln.Index))
			}
			return writeTarget(path, t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if ndjsonOut != nil {
		return closeNDJSON()
	}
	return nil
}

func printWireStats(st *wire.Stats) {
	fmt.Fprintf(os.Stderr,
		"algorithm=%s supersteps=%d attempted=%d accepted=%d acceptance=%.3f time=%v",
		st.Algorithm, st.Supersteps, st.Attempted, st.Accepted,
		float64(st.Accepted)/float64(st.Attempted), time.Duration(st.DurationNS))
	if st.Uniformity != "" {
		fmt.Fprintf(os.Stderr, " uniformity=%s", st.Uniformity)
	}
	if st.Backend != "" {
		fmt.Fprintf(os.Stderr, " backend=%s", st.Backend)
	}
	fmt.Fprintln(os.Stderr)
}

// openNDJSON resolves the NDJSON sink: stdout by default, or -out as a
// single stream file, with a close function that reports deferred
// write errors. Returns a nil writer for -format edgelist.
func openNDJSON(outPath, format string) (io.Writer, func() error, error) {
	if format != "ndjson" {
		return nil, nil, nil
	}
	if outPath == "" || outPath == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func printStats(st gesmc.Stats) {
	fmt.Fprintf(os.Stderr,
		"algorithm=%s supersteps=%d attempted=%d accepted=%d acceptance=%.3f rounds(avg=%.2f,max=%d) time=%v",
		st.Algorithm, st.Supersteps, st.Attempted, st.Accepted,
		float64(st.Accepted)/float64(st.Attempted), st.AvgRounds, st.MaxRounds, st.Duration)
	if st.ConstraintVetoes > 0 || st.EscapeAttempts > 0 {
		fmt.Fprintf(os.Stderr, " constraint(vetoed=%d escapes=%d/%d)",
			st.ConstraintVetoes, st.EscapeMoves, st.EscapeAttempts)
	}
	if st.Algorithm == gesmc.Exact.String() {
		fmt.Fprintf(os.Stderr, " exact(restarts=%d loops=%d multis=%d)",
			st.Restarts, st.LoopDefects, st.MultiDefects)
	}
	fmt.Fprintln(os.Stderr)
}

func writeTarget(path string, t gesmc.Target) error {
	if path == "-" {
		return gesmc.WriteEdgeList(os.Stdout, t)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gesmc.WriteEdgeList(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadTarget reads or generates the sampling target. Directed targets
// come only from arc-list input (-in); the generators are undirected.
func loadTarget(inPath, genSpec string, seed uint64, directed bool) (gesmc.Target, error) {
	if directed {
		switch {
		case genSpec != "":
			return nil, fmt.Errorf("-directed requires -in (the generators are undirected)")
		case inPath == "":
			return nil, fmt.Errorf("no input: pass -in FILE with -directed")
		case inPath == "-":
			return gesmc.ReadArcList(os.Stdin)
		default:
			f, err := os.Open(inPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return gesmc.ReadArcList(f)
		}
	}
	switch {
	case inPath != "" && genSpec != "":
		return nil, fmt.Errorf("use either -in or -gen, not both")
	case inPath == "-":
		return gesmc.ReadEdgeList(os.Stdin)
	case inPath != "":
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gesmc.ReadEdgeList(f)
	case genSpec != "":
		return generate(genSpec, seed)
	default:
		return nil, fmt.Errorf("no input: pass -in FILE or -gen SPEC")
	}
}

// generate builds a graph from a -gen spec. The generators cannot
// return errors for out-of-range parameters (they panic), so every
// parameter is validated here first: integers must lie in
// [0, graph.MaxNodes], grids must fit in graph.MaxNodes nodes, and p
// must lie in [0, 1].
func generate(spec string, seed uint64) (*gesmc.Graph, error) {
	kind, args, _ := strings.Cut(spec, ":")
	params := map[string]string{}
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("bad generator parameter %q", kv)
			}
			params[k] = v
		}
	}
	getInt := func(key string) (int, error) {
		s, ok := params[key]
		if !ok {
			return 0, fmt.Errorf("generator %q requires %s=", kind, key)
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, err
		}
		if v < 0 || v > graph.MaxNodes {
			return 0, fmt.Errorf("generator %q: %s=%d out of range [0, %d]", kind, key, v, graph.MaxNodes)
		}
		return v, nil
	}
	getFloat := func(key string) (float64, error) {
		s, ok := params[key]
		if !ok {
			return 0, fmt.Errorf("generator %q requires %s=", kind, key)
		}
		return strconv.ParseFloat(s, 64)
	}

	switch kind {
	case "gnp":
		n, err := getInt("n")
		if err != nil {
			return nil, err
		}
		p, err := getFloat("p")
		if err != nil {
			return nil, err
		}
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("generator %q: p=%v out of range [0, 1]", kind, p)
		}
		return gesmc.GenerateGNP(n, p, seed), nil
	case "pld":
		n, err := getInt("n")
		if err != nil {
			return nil, err
		}
		gamma, err := getFloat("gamma")
		if err != nil {
			return nil, err
		}
		return gesmc.GeneratePowerLaw(n, gamma, seed)
	case "reg":
		n, err := getInt("n")
		if err != nil {
			return nil, err
		}
		d, err := getInt("d")
		if err != nil {
			return nil, err
		}
		return gesmc.GenerateRegular(n, d)
	case "grid":
		r, err := getInt("r")
		if err != nil {
			return nil, err
		}
		c, err := getInt("c")
		if err != nil {
			return nil, err
		}
		if r*c > graph.MaxNodes {
			return nil, fmt.Errorf("generator %q: %dx%d grid exceeds %d nodes", kind, r, c, graph.MaxNodes)
		}
		return gesmc.GenerateGrid(r, c), nil
	default:
		return nil, fmt.Errorf("unknown generator %q (want gnp, pld, reg, grid)", kind)
	}
}

func printMetrics(label string, g *gesmc.Graph) {
	fmt.Fprintf(os.Stderr,
		"%s: n=%d m=%d dmax=%d density=%.2e triangles=%d clustering=%.4f assortativity=%.4f components=%d\n",
		label, g.N(), g.M(), g.MaxDegree(), g.Density(),
		g.Triangles(), g.ClusteringCoefficient(), g.Assortativity(), g.ConnectedComponents())
}

func fatal(err error) {
	// Library errors already carry the "gesmc: " prefix; don't stutter.
	msg := strings.TrimPrefix(err.Error(), "gesmc: ")
	if errors.Is(err, gesmc.ErrExactUnsupported) {
		// bad_request family, same as the server's 400: the request
		// must change, and the fallback is named rather than taken.
		fmt.Fprintln(os.Stderr, "gesmc:", msg, "— retry with -uniformity mcmc for an asymptotically uniform chain")
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "gesmc:", msg)
	os.Exit(1)
}

// exitCode maps a -server failure to a typed exit code, so scripts can
// tell a request they must fix (2) from a backend outage worth
// retrying later (3), backpressure (4), and their own timeout (5).
// In-band stream terminators (*service.StreamError) are classified by
// the wire code they carried.
func exitCode(err error) int {
	var se *service.StreamError
	if errors.As(err, &se) {
		switch se.Line.Code {
		case "bad_request":
			return 2
		case "overloaded", "shutting_down":
			return 4
		case "deadline", "canceled":
			return 5
		default: // "backend", "closed", "internal"
			return 3
		}
	}
	switch {
	case errors.Is(err, service.ErrBadRequest), errors.Is(err, gesmc.ErrExactUnsupported):
		return 2
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrShuttingDown):
		return 4
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 5
	case errors.Is(err, service.ErrBackend):
		return 3
	}
	return 1
}

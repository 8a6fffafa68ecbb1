package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/congest"
)

// workload is one input set the benchmark runs. Jobs are numbered from 0
// and issued one at a time by a single closed-loop client; a run stops
// only at a multiple of cycle, so every run measures whole composition
// blocks and the job mix does not depend on where the clock happened to
// stop.
type workload struct {
	name  string
	cycle int
	// rssBlocks, when set, makes peak_rss_mb the peak over the run's
	// first rssBlocks blocks instead of the whole run, for a workload
	// whose memory grows with the jobs served: users, not the server's
	// speed, set how many jobs arrive, so memory is compared at a fixed
	// job count.
	rssBlocks int
	setup     func(e *env) (bench, error)
}

// workloads are the benchmark's inputs. Each comment says why the
// workload exists and which layers it loads or bypasses; the numbers in
// them were taken on a 2-core, 8 GB host with go1.24.0.
var workloads = []workload{
	// svc-mixed drives the real triserve stack in-process: httpapi.New over
	// congest.OpenService(WithJournal) on a loopback listener, with one
	// closed-loop client (triserve's /v1/run callers and trictl
	// submit -watch both wait for their result; a second client on a
	// 2-core host made every time metric follow other tenants' load, see
	// runPhase). Jobs are small (about 1-200 ms), so HTTP decode/encode,
	// admission, the session's graph cache, result encoding and the
	// journal's three fsync'd appends per job take a large share of each
	// job; this is the only workload that loads those layers. It bypasses
	// nothing of the service path and is too small to say much about the
	// engine at scale. The session keeps every one-off inline graph with
	// its engine pools (0.5-2.6 MB each) for its lifetime, so memory here
	// grows with the jobs served; its peak_rss_mb is taken over the first
	// 50 blocks (2000 jobs). In the traced run each job executes twice,
	// once opaquely inside the HTTP handler and once as the direct replay,
	// so the layer shares printed for this workload count the job's work
	// twice; httpapi.self_ms subtracts the replay from the handler.
	{name: "svc-mixed", cycle: svcBlock, rssBlocks: 50, setup: setupSvc},
	// paper-core runs the paper's own algorithms one job at a time through
	// congest.Run with verification on auto: the Theorem-2 lister on
	// G(256, 0.1) and BA(256, 8), and the Theorem-1 finder on G(512, 0.1),
	// 1-3 s each. More than 98% of a job runs in the algorithm segments
	// (a2/a3 about evenly for list, a3 about 93% for find), which is where
	// the node code, HasInputEdge and the output collector live. BA adds
	// skewed degrees, which change per-node membership and collector cost.
	// It bypasses HTTP, the service and the journal entirely. It is run by
	// name, not in BENCHMARK.json's gated set: within the gate's time
	// limit a third workload would cut every run to about 30 s, too few
	// repeats of large-csr's jobs for their fastest to settle, and here
	// the seed picks the graphs, so job cost moves with the seed too.
	{name: "paper-core", cycle: 3, setup: setupPaperCore},
	// large-csr writes a 10^5-node sparse G(n, p) as a .csrbin file (the CI
	// drill graph) into the data directory during set-up; each job is a
	// fresh congest.Run from GraphSpec.File (an mmap load), cycling
	// through one count (about 200k simulated rounds, 39 of them active)
	// and two twohop runs (about 7M words in 13 rounds each). Two twohops
	// to one count put the median job inside twohop's latency mode; an
	// even mix would put it in the gap between the two modes, where it
	// swings with the slowest twohop and the fastest count. It loads the
	// engine substrate, agg, csrbin ingest and the oracle at scale, and
	// bypasses the paper's segments, the service and the journal.
	{name: "large-csr", cycle: 3, setup: setupLargeCSR},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// subSeed derives an independent seed for one purpose from the workload
// seed, so adding a draw in one place does not shift every other input.
func subSeed(seed int64, purpose string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(purpose) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	h ^= h >> 31
	return int64(h & (1<<62 - 1))
}

// specKey is a spec's canonical identity: its JSON encoding.
func specKey(spec congest.JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec holds only plain data
	}
	return string(b)
}

// paperCoreSpecs is one paper-core cycle. Sizes are fixed; the seed picks
// the graphs and the engine randomness.
func paperCoreSpecs(seed int64, tiny bool) []congest.JobSpec {
	nList, nFind, baK := 256, 512, 8
	if tiny {
		nList, nFind, baK = 32, 48, 3
	}
	s := func(p string) int64 { return subSeed(seed, p) }
	return []congest.JobSpec{
		{Graph: congest.GraphSpec{Generator: "gnp", N: nList, P: 0.1, Seed: s("list-gnp")}, Algo: "list", Seed: s("list-gnp-run")},
		{Graph: congest.GraphSpec{Generator: "ba", N: nList, K: baK, Seed: s("list-ba")}, Algo: "list", Seed: s("list-ba-run")},
		{Graph: congest.GraphSpec{Generator: "gnp", N: nFind, P: 0.1, Seed: s("find-gnp")}, Algo: "find", Seed: s("find-gnp-run")},
	}
}

// largeCSRGraph is the large-csr input: mean degree 8, so a giant
// component with a few dozen isolated vertices and tree fragments.
func largeCSRGraph(seed int64, tiny bool) congest.GraphSpec {
	n := 100_000
	if tiny {
		n = 3000
	}
	return congest.GraphSpec{Generator: "gnp", N: n, P: 8 / float64(n), Seed: subSeed(seed, "large-csr")}
}

// largeCSRSpecs is one large-csr cycle over the graph file at path.
func largeCSRSpecs(seed int64, path string) []congest.JobSpec {
	g := congest.GraphSpec{File: path}
	return []congest.JobSpec{
		{Graph: g, Algo: "count", Seed: subSeed(seed, "count-run")},
		{Graph: g, Algo: "twohop", Seed: subSeed(seed, "twohop-run")},
		{Graph: g, Algo: "twohop", Seed: subSeed(seed, "twohop-run")},
	}
}

// svc-mixed composition: every block of svcBlock jobs holds these counts
// of each kind of job, shuffled.
const (
	svcBlock  = 40
	svcList   = 4  // list at n <= 32
	svcInline = 5  // one-off inline edge lists: graph-cache misses, large bodies
	svcFaulty = 4  // loss+delay fault plans, one each of svcFaultJobs
	svcAsync  = 10 // POST /v1/jobs + long-poll GET instead of /v1/run
)

// svcAlgos are the algorithms of the plain pool jobs. count is kept off
// the planted graphs: agg counts the root's connected component only
// (its documented contract), and planted graphs are disconnected.
var svcAlgos = []string{"find", "count", "dolev", "a2", "axr", "twohop", "tester"}

// svcFaultJobs are the loss+delay jobs, on pooled graphs, verified
// one-sided: under loss completeness is not expected, and under delay the
// phase-scheduled algorithms (a2, a3, axr, find, list) misattribute late
// words to the wrong phase and emit non-triangles — measured behaviour of
// the fault model, not something a throughput benchmark should fail on.
var svcFaultJobs = []congest.JobSpec{
	{Graph: svcPool[0], Algo: "dolev", Faults: &congest.FaultSpec{Seed: 101, Loss: 0.03, DelayMax: 1}},
	{Graph: svcPool[5], Algo: "tester", Faults: &congest.FaultSpec{Seed: 104, Loss: 0.02, DelayMax: 1}},
	{Graph: svcPool[2], Algo: "twohop", Faults: &congest.FaultSpec{Seed: 105, Loss: 0.08, DelayMax: 2}},
	{Graph: svcPool[3], Algo: "dolev", Faults: &congest.FaultSpec{Seed: 102, Loss: 0.06, DelayMax: 3}},
}

// svcInlineAlgos are the algorithms of the inline-graph jobs, one each.
var svcInlineAlgos = []string{"find", "a2", "axr", "twohop", "dolev"}

// svcJob is one generated svc-mixed request.
type svcJob struct {
	spec  congest.JobSpec
	async bool
}

// svcPool is the fixed graph pool svc-mixed's repeated jobs run on: the
// graphs a long-running server holds in its session cache.
var svcPool = []congest.GraphSpec{
	{Generator: "gnp", N: 48, P: 0.25, Seed: 11},
	{Generator: "gnp", N: 64, P: 0.2, Seed: 12},
	{Generator: "gnp", N: 96, P: 0.15, Seed: 13},
	{Generator: "ba", N: 64, K: 4, Seed: 14},
	{Generator: "ba", N: 96, K: 3, Seed: 15},
	{Generator: "planted", N: 96, K: 16, Seed: 16},
}

// svcListPool holds the small graphs the list jobs run on.
var svcListPool = []congest.GraphSpec{
	{Generator: "gnp", N: 32, P: 0.3, Seed: 17},
	{Generator: "ba", N: 32, K: 3, Seed: 18},
}

// svcRepeated is the part of every block that is the same in every block
// and for every seed: the list, fault and pooled jobs, each with its
// engine seed and route. A long-running server sees the same requests
// again and again; here each recurs once a block, over a hundred times
// in a 45 s run, so its fastest latency settles (see settled), and no seed changes
// what a block costs. Drawing graphs, engine seeds and routes per block
// instead split the slowest jobs into classes of two to five repeats
// whose counts changed with the seed, and job_tail_ms with them. The seed
// varies the one-off inline graphs and the order within each block.
var svcRepeated = repeatedJobs()

func repeatedJobs() []svcJob {
	var jobs []svcJob
	add := func(spec congest.JobSpec) {
		// Two in every seven go async: svcAsync of the 35.
		jobs = append(jobs, svcJob{spec: spec, async: len(jobs)%7 == 1 || len(jobs)%7 == 4})
	}
	for k := 0; k < svcList; k++ {
		add(congest.JobSpec{Graph: svcListPool[k%len(svcListPool)], Algo: "list", Seed: int64(1 + k/len(svcListPool))})
	}
	for _, spec := range svcFaultJobs {
		spec.Seed, spec.Verify = 1, congest.VerifyOneSided
		add(spec)
	}
	// Each round of the algorithms moves four graphs on, so no spec
	// repeats within a block and each algorithm meets three or four graphs.
	for k := 0; len(jobs) < svcBlock-svcInline; k++ {
		algo := svcAlgos[k%len(svcAlgos)]
		gs := svcPool[(k+4*(k/len(svcAlgos)))%len(svcPool)]
		if algo == "count" && gs.Generator == "planted" {
			gs = svcPool[0]
		}
		add(congest.JobSpec{Graph: gs, Algo: algo, Seed: int64(1 + k%3)})
	}
	return jobs
}

// svcGen generates the svc-mixed job sequence for one seed.
type svcGen struct {
	seed int64

	mu     sync.Mutex
	blocks map[int][]svcJob // recently generated blocks
}

// class names the jobs that do the same work: the spec and the route it
// takes (an async job adds a submit and a long-poll), except that the
// one-off inline graphs, all drawn alike, share one class per algorithm
// and engine seed.
func (j svcJob) class() string {
	route := "run"
	if j.async {
		route = "jobs"
	}
	if j.spec.Graph.Edges != nil {
		return fmt.Sprintf("%s inline G(%d) %s seed %d", route, j.spec.Graph.N, j.spec.Algo, j.spec.Seed)
	}
	return route + " " + specKey(j.spec)
}

func newSvcGen(seed int64) *svcGen {
	return &svcGen{seed: seed, blocks: make(map[int][]svcJob)}
}

// graphs returns every pooled graph, the set-up's warm-up list.
func (g *svcGen) graphs() []congest.GraphSpec {
	return append(append([]congest.GraphSpec(nil), svcPool...), svcListPool...)
}

// job returns job i of the sequence. Jobs are generated a block at a time
// from a block-seeded source, so job i depends only on (seed, i).
func (g *svcGen) job(i int) svcJob {
	b := i / svcBlock
	g.mu.Lock()
	defer g.mu.Unlock()
	jobs, ok := g.blocks[b]
	if !ok {
		jobs = g.block(b)
		g.blocks[b] = jobs
		delete(g.blocks, b-2) // a traced job looks back at most one block
	}
	return jobs[i%svcBlock]
}

func (g *svcGen) block(b int) []svcJob {
	rng := rand.New(rand.NewSource(subSeed(g.seed, fmt.Sprintf("block-%d", b))))
	jobs := make([]svcJob, 0, svcBlock)
	for _, j := range svcRepeated {
		if j.spec.Faults != nil {
			plan := *j.spec.Faults // each job owns its plan
			j.spec.Faults = &plan
		}
		jobs = append(jobs, j)
	}
	for k := 0; k < svcInline; k++ {
		spec := congest.JobSpec{Graph: inlineGnp(rng, 40, 0.25), Algo: svcInlineAlgos[k], Seed: int64(1 + k%3)}
		jobs = append(jobs, svcJob{spec: spec})
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// inlineGnp draws a one-off G(n, p) as an inline edge list; the session
// cannot have seen it, so it misses the graph cache and makes a request
// body of several kilobytes.
func inlineGnp(rng *rand.Rand, n int, p float64) congest.GraphSpec {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return congest.GraphSpec{N: n, Edges: edges}
}

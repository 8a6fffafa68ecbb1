// Command jobbench is the repository's end-to-end job benchmark: it runs
// real JobSpecs through the real path — the triserve HTTP stack, the
// congest Service/Session and one-shot congest.Run — checks every output,
// and reports what a user pays per verified job in host time and memory.
// Run it from the repository root through its build script:
//
//	bash jobbench/run.sh --workload svc-mixed --seed 3 --seconds 45 --trace 0
//
// --trace 0 prints the end-to-end metrics (setup_s, jobs_per_s,
// job_p50_ms, job_tail_ms, cpu_ms_per_job, alloc_mb_per_job, peak_rss_mb
// and fail_ratio). The result line carries ok_ratio = 1 - fail_ratio in
// fail_ratio's place, because a good run's fail_ratio is 0 and a bound
// relative to a zero median means nothing. One closed-loop client issues
// the jobs. The host is shared with other tenants, whose load only ever
// adds time, so job_p50_ms and job_tail_ms give each job its class's
// fastest latency over the run (see settled; every repeat of a spec sent
// the same way does the same work), and jobs_per_s is the client's
// throughput at those latencies; the latencies as measured are printed
// beside them. --trace 1 runs the workload untraced for half the time and
// traced for the other half, writes the spans to
// .bench_data/traces/<workload>-seed<seed>.spans.jsonl, and prints the
// per-layer metrics. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; the lines before it
// give the host provenance, sample counts, the tail percentile used and a
// results_digest over the first composition block's distinct specs, so a
// speed-only change can show every simulated statistic unchanged. The
// command exits nonzero on any failed, unverified or nondeterministic job.
//
// The workloads, and why each exists, are defined in workloads.go.
//
// This benchmark does not replace the microbenchmark gate: cmd/bench and
// the committed BENCH_*.json baselines stay as they are and keep gating
// single engine steps, the oracle and the service batch. jobbench is the
// end-to-end reference; neither one replaces the other.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// dataDir holds everything a run writes besides its build: the graph
// files under graphs/, the service journals under svc/ and the span files
// under traces/. It is relative to the repository root.
const dataDir = ".bench_data"

// hardLimit bounds a whole invocation, well inside the three minutes a
// run may take.
const hardLimit = 170 * time.Second

// env is what a workload's set-up gets.
type env struct {
	seed    int64
	dataDir string
	tiny    bool    // test sizes
	rep     int     // set-up repetition, for distinct data paths
	tr      *tracer // non-nil in a traced invocation
	counts  *counts
}

// bench is one set-up workload instance.
type bench interface {
	// run executes job i. With a non-nil jt it also records the job's
	// spans and makes the traced run's direct layer calls.
	run(ctx context.Context, i int, jt *jobTrace) outcome
	close() error
}

// outcome is one job's result as the checker sees it.
type outcome struct {
	key      string        // the spec's canonical JSON
	class    string        // jobs that do the same work share it; "" means key
	result   []byte        // canonical Result JSON; nil if the job returned none to compare
	verified bool          // the job's own verification (or the traced run's oracle) passed
	latency  time.Duration // request to reply, as the caller waits for it
	err      error
}

// counts are additive per-layer counters of a traced phase.
type counts struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounts() *counts { return &counts{m: make(map[string]float64)} }

func (c *counts) add(name string, v float64) {
	c.mu.Lock()
	c.m[name] += v
	c.mu.Unlock()
}

func (c *counts) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// jobTrace is one traced job's handle on the tracer and counters.
type jobTrace struct {
	tr  *tracer
	c   *counts
	job string
	e2e func(key string) ([]byte, bool) // the end-to-end Result bytes seen for a spec
}

func (jt *jobTrace) begin(parent int64, name string) span { return jt.tr.begin(jt.job, parent, name) }
func (jt *jobTrace) end(s span) span                      { return jt.tr.end(s) }

// checker validates every outcome and remembers each spec's Result bytes,
// so a repeat that differs is caught.
type checker struct {
	cycle int

	mu        sync.Mutex
	results   map[string][]byte
	firstKeys map[int]string // job index -> spec key, first block only
	attempted int
	failed    int
	errs      []string
}

func newChecker(cycle int) *checker {
	return &checker{cycle: cycle, results: make(map[string][]byte), firstKeys: make(map[int]string)}
}

func (c *checker) check(i int, o outcome) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	err := o.err
	if err == nil && !o.verified {
		err = errors.New("verification failed")
	}
	if err == nil && o.result != nil {
		if prev, ok := c.results[o.key]; !ok {
			c.results[o.key] = o.result
		} else if string(prev) != string(o.result) {
			err = errors.New("nondeterministic: a repeat of the spec returned different Result bytes")
		}
	}
	if i < c.cycle && o.result != nil {
		c.firstKeys[i] = o.key
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("job %d: %v (spec %.200s)", i, err, o.key))
		}
		return false
	}
	return true
}

func (c *checker) result(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.results[key]
	return b, ok
}

// digest hashes the canonical Result bytes of the first block's distinct
// specs, in spec-key order.
func (c *checker) digest() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]bool)
	var keys []string
	for _, k := range c.firstKeys {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, c.results[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16], len(keys)
}

// phaseStats is what one measured phase produced.
type phaseStats struct {
	attempted int
	ok        int
	next      int             // first job index after the phase
	latMs     []float64       // latencies of jobs that passed every check
	classes   []string        // their classes (outcome.class)
	blockCPU  []time.Duration // process CPU time as each composition block starts
	allocB    uint64
	peakRSS   uint64
	peakHeap  uint64
	gcCPUFrac float64
}

// cpuPerJob turns the block marks (block k runs from mark k to mark k+1)
// into per-block CPU per job (ms), reported as their median over blocks,
// so a burst of contention from other tenants of the host during part of
// a run moves it less than it moves a whole-run average.
func cpuPerJob(marks []time.Duration, cycle int) (cpuMs []float64) {
	for k := 1; k < len(marks); k++ {
		cpuMs = append(cpuMs, ms(marks[k]-marks[k-1])/float64(cycle))
	}
	return cpuMs
}

// jobsPerS is the phase's verified-job throughput: what one closed-loop
// client sustains when every job takes its settled latency (see settled),
// scaled by the share of jobs that passed. The client waits for each job
// in turn, so its throughput is the jobs over the sum of their latencies;
// the benchmark's own checking between jobs is left out.
func (st phaseStats) jobsPerS() float64 {
	lat := settled(st.classes, st.latMs)
	return ratio(float64(len(lat)), sum(lat)/1e3) * ratio(float64(st.ok), float64(st.attempted))
}

// runPhase drives b with one closed-loop client from job index first
// until seconds have passed, finishing the composition block in progress.
// One client keeps the load to about one of the host's cores, so the
// other absorbs the Go runtime's background work and other tenants' load
// instead of the jobs. trace, when non-nil, makes every job a traced one.
func runPhase(ctx context.Context, w workload, b bench, chk *checker, first int, seconds float64, trace func(i int) *jobTrace) phaseStats {
	runtime.GC()
	samp := startSampler(20 * time.Millisecond)
	rt0 := readRuntime(mGCCPU, mTotalCPU)
	alloc0, _ := allocTotals()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))

	var st phaseStats
	rssTaken := false
	i := first
	for ; ; i++ {
		if (i-first)%w.cycle == 0 {
			st.blockCPU = append(st.blockCPU, cpuTime())
			if !rssTaken && w.rssBlocks > 0 && len(st.blockCPU)-1 == w.rssBlocks {
				st.peakRSS, _ = samp.peaks()
				rssTaken = true
			}
			if time.Now().After(deadline) {
				break
			}
		}
		if ctx.Err() != nil { // cancelled: close the last block now
			st.blockCPU = append(st.blockCPU, cpuTime())
			break
		}
		var jt *jobTrace
		if trace != nil {
			jt = trace(i)
		}
		o := b.run(ctx, i, jt)
		if o.class == "" {
			o.class = o.key
		}
		st.attempted++
		if chk.check(i, o) {
			st.ok++
			st.latMs = append(st.latMs, ms(o.latency))
			st.classes = append(st.classes, o.class)
		}
	}
	alloc1, _ := allocTotals()
	st.allocB = alloc1 - alloc0
	rt1 := readRuntime(mGCCPU, mTotalCPU)
	st.gcCPUFrac = ratio(rt1[0]-rt0[0], rt1[1]-rt0[1])
	rss, heap := samp.finish()
	if !rssTaken {
		st.peakRSS = rss
	}
	st.peakHeap = heap
	st.next = i
	return st
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced phase. Job
// latencies are settled per class (see settled) before the median and the
// tail are taken.
func endToEnd(st phaseStats, cycle int, setupS float64) (map[string]metric, tailStat) {
	jobs := float64(st.attempted)
	lat := settled(st.classes, st.latMs)
	tl := tail(lat, tailMinBeyond)
	cpuMs := cpuPerJob(st.blockCPU, cycle)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"jobs_per_s":       {st.jobsPerS(), "1/s"},
		"job_p50_ms":       {median(lat), "ms"},
		"job_tail_ms":      {tl.Value, "ms"},
		"cpu_ms_per_job":   {median(cpuMs), "ms"},
		"alloc_mb_per_job": {ratio(float64(st.allocB)/1e6, jobs), "MB"},
		"peak_rss_mb":      {float64(st.peakRSS) / 1e6, "MB"},
		"ok_ratio":         {ratio(float64(st.ok), jobs), "ratio"},
	}, tl
}

// rawLatency is the whole-phase median and tail of the latencies as
// measured, printed beside the settled ones.
func rawLatency(st phaseStats) [2]float64 {
	return [2]float64{median(st.latMs), tail(st.latMs, tailMinBeyond).Value}
}

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	tiny     bool
}

// report is everything one invocation prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Details printed before the result line.
	Provenance map[string]any    `json:"-"`
	EndToEnd   map[string]metric `json:"-"`
	Tail       tailStat          `json:"-"`
	Raw        [2]float64        `json:"-"` // whole-run p50 and tail of the latencies as measured
	Digest     string            `json:"-"`
	DigestN    int               `json:"-"`
	Errors     []string          `json:"-"`
	SpansFile  string            `json:"-"`
	Layers     string            `json:"-"`
}

func provenance(cfg config) (map[string]any, error) {
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	p := map[string]any{
		"go_version": runtime.Version(), "gomaxprocs": procs, "num_cpu": cpus,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
	}
	if procs > cpus {
		return p, fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d: the run would be timesliced, refusing to record it", procs, cpus)
	}
	return p, nil
}

// execute runs one invocation.
func execute(ctx context.Context, cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	prov, err := provenance(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, dataDir: cfg.dataDir, tiny: cfg.tiny}
	if cfg.trace {
		e.tr, e.counts = newTracer(), newCounts()
	}

	var b bench
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", rep-1, err)
			}
		}
		e.rep = rep
		t0 := time.Now()
		b, err = w.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer b.close()
	setupS := median(setups)

	chk := newChecker(w.cycle)
	rep := &report{Provenance: prov}
	if !cfg.trace {
		st := runPhase(ctx, w, b, chk, 0, cfg.seconds, nil)
		rep.EndToEnd, rep.Tail = endToEnd(st, w.cycle, setupS)
		rep.Raw = rawLatency(st)
		rep.Metrics = rep.EndToEnd
		prov["samples"] = st.attempted
	} else {
		plain := runPhase(ctx, w, b, chk, 0, cfg.seconds/2, nil)
		rep.EndToEnd, rep.Tail = endToEnd(plain, w.cycle, setupS)
		rep.Raw = rawLatency(plain)
		traced := runPhase(ctx, w, b, chk, plain.next, cfg.seconds/2, func(i int) *jobTrace {
			return &jobTrace{tr: e.tr, c: e.counts, job: fmt.Sprintf("j%d", i), e2e: chk.result}
		})
		spans := e.tr.all()
		sum := summarize(spans)
		rep.Metrics = perLayer(sum, e.counts, plain, traced, w.cycle, b)
		rep.Layers = sum.String()
		dir := filepath.Join(cfg.dataDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rep.SpansFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(rep.SpansFile, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		prov["samples"] = plain.attempted
		prov["traced_samples"] = traced.attempted
	}
	prov["setup_samples"] = len(setups)
	rep.Digest, rep.DigestN = chk.digest()
	rep.Attempted, rep.Failed, rep.Errors = chk.attempted, chk.failed, chk.errs
	rep.Correct = chk.failed == 0 && chk.attempted > 0
	return rep, nil
}

func (r *report) print(w io.Writer) {
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(w, "provenance: %s\n", prov)
	names := make([]string, 0, len(r.EndToEnd))
	for n := range r.EndToEnd {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "end-to-end %-16s %14.4f %s\n", n, r.EndToEnd[n].Value, r.EndToEnd[n].Unit)
	}
	fmt.Fprintf(w, "job_tail_ms is p%.2f over %d samples (%d beyond)\n", r.Tail.Pct, r.Tail.Samples, r.Tail.Beyond)
	fmt.Fprintf(w, "unsettled latencies, every job as measured: p50 %.4f ms, tail %.4f ms\n", r.Raw[0], r.Raw[1])
	fmt.Fprintf(w, "end-to-end %-16s %14.4f ratio (%d of %d jobs)\n", "fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	fmt.Fprintf(w, "results_digest %s over %d distinct specs\n", r.Digest, r.DigestN)
	if r.SpansFile != "" {
		fmt.Fprintf(w, "spans: %s\nlayer self-time shares: %s\n", r.SpansFile, r.Layers)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: svc-mixed, paper-core or large-csr")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; it generates every input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs a traced half and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.dataDir = dataDir
	if (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "jobbench: need --workload, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	rep, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		cancel()
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		cancel()
		os.Exit(1)
	}
}

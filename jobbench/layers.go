package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// segObserver times a job's schedule segments from the outside: a segment
// runs from its OnSegment to the next one, and the last one to the last
// round that moved words or output a triangle (the idle rounds after it
// are fast-forwarded). Callbacks run on the job's own goroutine, one at a
// time, and the observer is read only after the job has returned, so it
// needs no lock; OnRound reads the clock only on rounds that moved words,
// keeping its cost off the thousands of idle rounds.
type segObserver struct {
	first time.Time // first callback: the job left the queue
	last  time.Time
	marks []segMark
}

type segMark struct {
	name string
	at   time.Time
}

func (o *segObserver) touch() time.Time {
	now := time.Now()
	if o.first.IsZero() {
		o.first = now
	}
	o.last = now
	return now
}

func (o *segObserver) OnSegment(seg congest.SegmentInfo) {
	o.marks = append(o.marks, segMark{seg.Name, o.touch()})
}

func (o *segObserver) OnRound(_ int, d congest.RoundDelta) {
	if d.Moved {
		o.touch()
	}
}

func (o *segObserver) OnTriangle(int, congest.Triangle) { o.touch() }

// emit records the segments as spans under parent, named after the core
// building block that ran them.
func (o *segObserver) emit(jt *jobTrace, parent int64, algo string) {
	for k, m := range o.marks {
		end := o.last
		if k+1 < len(o.marks) {
			end = o.marks[k+1].at
		}
		jt.tr.record(jt.job, parent, segmentLayer(m.name, algo), m.at, end)
	}
}

// segmentLayer names a segment's span: "a2#3" -> "core.a2". A
// single-schedule run ("run") is named after its algorithm when that is a
// paper building block and is core.run otherwise (baselines, tester).
func segmentLayer(seg, algo string) string {
	name, _, _ := strings.Cut(seg, "#")
	if name == "run" {
		switch algo {
		case "a1", "a2", "a3", "axr":
			name = algo
		}
	}
	return "core." + name
}

// verifyMode is the check congest runs for a spec under verify "auto" or
// an explicit mode; it mirrors the documented VerifyAuto rules.
func verifyMode(spec congest.JobSpec) string {
	switch spec.Verify {
	case congest.VerifyOneSided, congest.VerifyListing, congest.VerifyFinding:
		if spec.Algo != "count" {
			return spec.Verify
		}
	}
	switch spec.Algo {
	case "count":
		return "count"
	case "list", "twohop", "local", "dolev", "dolev-deg", "dolev-relay", "bcast-twohop":
		return congest.VerifyListing
	case "find":
		return congest.VerifyFinding
	}
	return congest.VerifyOneSided
}

// oracleCheck verifies res against the centralized oracle directly, the
// way a job's own verification pass does. It returns the report that pass
// would have produced.
func oracleCheck(g *graph.Graph, spec congest.JobSpec, res congest.Result, workers int) congest.VerifyReport {
	mode := verifyMode(spec)
	rep := congest.VerifyReport{Mode: mode, OK: true}
	ts := make([]graph.Triangle, len(res.Triangles))
	for i, t := range res.Triangles {
		ts[i] = graph.Triangle{A: t[0], B: t[1], C: t[2]}
	}
	cr := core.Result{Outputs: [][]graph.Triangle{ts}, Union: graph.NewTriangleSet(ts)}
	oracle := &graph.OracleScratch{Workers: workers}
	var err error
	switch mode {
	case "count":
		n := oracle.CountTriangles(g)
		rep.OracleTriangles = &n
		if int64(n) != res.Count {
			err = fmt.Errorf("count %d, oracle %d", res.Count, n)
		}
	case congest.VerifyListing:
		truth := oracle.ListTriangles(g)
		n := len(truth)
		rep.OracleTriangles = &n
		err = core.VerifyListingAgainst(g, truth, cr)
	case congest.VerifyFinding:
		n := oracle.CountTriangles(g)
		rep.OracleTriangles = &n
		err = core.VerifyFindingWithCount(g, n, cr)
	default:
		err = core.VerifyOneSided(g, cr)
	}
	if err != nil {
		rep.OK = false
		rep.Detail = err.Error()
	}
	return rep
}

// sameOutcome checks that the traced run's direct layer calls reproduced
// the end-to-end job: the replayed run's outputs and communication
// metrics, and the direct oracle's verdict.
func sameOutcome(e2e congest.Result, replay congest.Result, oracle congest.VerifyReport) error {
	if replay.TriangleCount != e2e.TriangleCount || replay.Count != e2e.Count {
		return fmt.Errorf("replay found %d triangles (count %d), end-to-end job %d (count %d)",
			replay.TriangleCount, replay.Count, e2e.TriangleCount, e2e.Count)
	}
	if !reflect.DeepEqual(replay.Metrics, e2e.Metrics) {
		return fmt.Errorf("replay metrics %+v differ from end-to-end %+v", replay.Metrics, e2e.Metrics)
	}
	if e2e.Verify == nil || e2e.Verify.Mode != oracle.Mode || e2e.Verify.OK != oracle.OK {
		return fmt.Errorf("direct oracle check %+v disagrees with the job's %+v", oracle, e2e.Verify)
	}
	if a, b := e2e.Verify.OracleTriangles, oracle.OracleTriangles; (a == nil) != (b == nil) || (a != nil && *a != *b) {
		return fmt.Errorf("direct oracle counted a different |T(G)| than the job's verification")
	}
	return nil
}

// graphCall times Session.Graph for spec. A call the session answers from
// its cache is a session.graph span; a miss builds the graph and is named
// after the ingest path that ran (graph.gen, graph.csr_open,
// graph.inline), because building dominates it.
func (jt *jobTrace) graphCall(sess *congest.Session, gs congest.GraphSpec, parent int64, hit bool) (*graph.Graph, error) {
	name := "session.graph"
	if !hit {
		switch {
		case gs.File != "":
			name = "graph.csr_open"
		case gs.Generator != "":
			name = "graph.gen"
		default:
			name = "graph.inline"
		}
	}
	s := jt.begin(parent, name)
	g, err := sess.Graph(gs)
	jt.end(s)
	jt.c.add("session.graph_calls", 1)
	if hit {
		jt.c.add("session.graph_hits", 1)
	} else if err == nil {
		jt.c.add("graph.edges", float64(g.M()))
	}
	return g, err
}

// simCounts adds a replayed run's engine accounting.
func (jt *jobTrace) simCounts(res congest.Result) {
	jt.c.add("sim.rounds", float64(res.Meta.ExecutedRounds))
	jt.c.add("sim.ff", float64(res.Meta.FastForwardedRounds))
	jt.c.add("sim.words", float64(res.Metrics.WordsDelivered))
	jt.c.add("sim.jobs", 1)
}

// encode times the Result encoding a server response pays.
func (jt *jobTrace) encode(parent int64, res congest.Result) {
	s := jt.begin(parent, "encode.result")
	b, err := json.Marshal(res)
	jt.end(s)
	if err == nil {
		jt.c.add("encode.bytes", float64(len(b)))
	}
}

// perLayer computes the per-layer metrics of a traced invocation from its
// spans and counters, the untraced phase (runtime and tracing overhead)
// and the traced phase.
func perLayer(sum spanSummary, c *counts, plain, traced phaseStats, cycle int, b bench) map[string]metric {
	jobs := float64(sum.jobs)
	perJob := func(name string) float64 { return ratio(c.get(name), jobs) }
	misses := []string{"graph.gen", "graph.csr_open", "graph.inline"}
	var missDur time.Duration
	var missN int
	for _, n := range misses {
		missDur += sum.total[n]
		missN += sum.count[n]
	}
	gen := sum.setup["graph.gen"]
	engine := sum.total["agg.count"]
	for name, d := range sum.total {
		if strings.HasPrefix(name, "core.") {
			engine += d
		}
	}
	rounds, ff, words := c.get("sim.rounds"), c.get("sim.ff"), c.get("sim.words")
	stepped := rounds - ff
	// HTTP self time is taken over synchronous jobs only, whose single
	// /v1/run handler span encloses the whole job; an async job runs
	// partly between its POST and its long-polls.
	var httpSelf []float64
	for _, byName := range sum.byJob {
		if h := byName["httpapi.handler"]; h.n == 1 {
			if j, ok := byName["service.job"]; ok {
				httpSelf = append(httpSelf, ms(h.d-j.d))
			}
		}
	}
	cached := 0
	if sb, ok := b.(*svcBench); ok {
		cached = sb.graphsCached(traced.next)
	}
	m := map[string]metric{
		"httpapi.rtt_ms":     {sum.perJobMs("httpapi.rtt"), "ms"},
		"httpapi.self_ms":    {median(httpSelf), "ms"},
		"httpapi.req_bytes":  {perJob("httpapi.req_bytes"), "bytes"},
		"httpapi.resp_bytes": {perJob("httpapi.resp_bytes"), "bytes"},
		"httpapi.non2xx":     {c.get("httpapi.non2xx"), "count"},

		"service.queue_wait_ms": {sum.meanMs("service.queue_wait"), "ms"},
		"service.saturated":     {c.get("service.saturated"), "count"},

		"session.graph_ms":        {ratio(ms(missDur), float64(missN)), "ms"},
		"session.graph_hit_ratio": {ratio(c.get("session.graph_hits"), c.get("session.graph_calls")), "ratio"},
		"session.graphs_cached":   {float64(cached), "count"},

		"graph.gen_ms":      {ratio(ms(sum.total["graph.gen"]+gen.d), float64(sum.count["graph.gen"]+gen.n)), "ms"},
		"graph.csr_open_ms": {sum.meanMs("graph.csr_open"), "ms"},
		"graph.edges_per_s": {ratio(c.get("graph.edges"), (missDur + gen.d).Seconds()), "1/s"},

		"core.a1_ms":            {sum.perJobMs("core.a1"), "ms"},
		"core.a2_ms":            {sum.perJobMs("core.a2"), "ms"},
		"core.a3_ms":            {sum.perJobMs("core.a3"), "ms"},
		"core.axr_ms":           {sum.perJobMs("core.axr"), "ms"},
		"core.run_ms":           {sum.perJobMs("core.run"), "ms"},
		"core.allocs_per_job":   {ratio(c.get("core.mallocs"), c.get("core.jobs")), "count"},
		"core.alloc_mb_per_job": {ratio(c.get("core.bytes")/1e6, c.get("core.jobs")), "MB"},

		"sim.rounds":               {ratio(rounds, c.get("sim.jobs")), "count"},
		"sim.stepped_rounds":       {ratio(stepped, c.get("sim.jobs")), "count"},
		"sim.ff_ratio":             {ratio(ff, rounds), "ratio"},
		"sim.words":                {ratio(words, c.get("sim.jobs")), "count"},
		"sim.ns_per_word":          {ratio(float64(engine), words), "ns"},
		"sim.ns_per_stepped_round": {ratio(float64(engine), stepped), "ns"},

		"agg.count_ms": {sum.perJobMs("agg.count"), "ms"},

		"oracle.verify_ms": {sum.perJobMs("oracle.verify"), "ms"},
		"oracle.share":     {ratio(float64(sum.total["oracle.verify"]), float64(sum.rootTotal)), "ratio"},

		"encode.result_ms":    {sum.perJobMs("encode.result"), "ms"},
		"encode.result_bytes": {perJob("encode.bytes"), "bytes"},

		"journal.append_ms":       {sum.meanMs("journal.append"), "ms"},
		"journal.appends_per_job": {ratio(float64(sum.count["journal.append"]), jobs), "count"},
		"journal.bytes_per_job":   {perJob("journal.bytes"), "bytes"},

		"runtime.gc_cpu_frac":  {plain.gcCPUFrac, "ratio"},
		"runtime.heap_peak_mb": {float64(plain.peakHeap) / 1e6, "MB"},

		"trace.overhead_frac":   {1 - ratio(traced.jobsPerS(), plain.jobsPerS()), "ratio"},
		"trace.unattributed_ms": {ratio(ms(sum.unattributed), jobs), "ms"},
	}
	return m
}

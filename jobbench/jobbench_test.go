package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   tailStat
		reason string
	}{
		{0, tailStat{}, "empty"},
		{5, tailStat{Value: 3, Pct: 50, Beyond: 2, Samples: 5}, "too few for any tail above the median: the median"},
		{20, tailStat{Value: 10.5, Pct: 50, Beyond: 10, Samples: 20}, "10 beyond would put the tail below the median"},
		{21, tailStat{Value: 11, Pct: 100 * 11.0 / 21, Beyond: 10, Samples: 21}, "smallest sample with a tail"},
		{1000, tailStat{Value: 990, Pct: 99, Beyond: 10, Samples: 1000}, "p99 of 1000 has exactly 10 beyond"},
	} {
		if got := tail(seq(tc.n), tailMinBeyond); got != tc.want {
			t.Errorf("n=%d (%s): got %+v, want %+v", tc.n, tc.reason, got, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSettled(t *testing.T) {
	classes := []string{"a", "b", "a", "c", "a", "b"}
	lat := []float64{5, 9, 3, 7, 4, 8}
	if got, want := settled(classes, lat), []float64{3, 8, 3, 7, 3, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("settled = %v, want %v", got, want)
	}
	st := phaseStats{attempted: 4, ok: 4, classes: []string{"a", "a", "b", "b"}, latMs: []float64{300, 100, 200, 250}}
	if got := st.jobsPerS(); got != 4/0.6 {
		t.Errorf("jobsPerS = %v, want %v (4 jobs over 2*100+2*200 ms)", got, 4/0.6)
	}
	st.attempted = 8 // half the jobs failed their checks
	if got := st.jobsPerS(); got != 2/0.6 {
		t.Errorf("jobsPerS with half failed = %v, want %v", got, 2/0.6)
	}
}

// TestSvcClasses checks that the jobs settled together do the same work:
// a spec sent synchronously and asynchronously are two classes, and the
// one-off inline graphs share a class per algorithm and engine seed.
func TestSvcClasses(t *testing.T) {
	g := newSvcGen(4)
	byClass := make(map[string]map[string]bool)
	for i := 0; i < 20*svcBlock; i++ {
		j := g.job(i)
		c := j.class()
		if byClass[c] == nil {
			byClass[c] = make(map[string]bool)
		}
		byClass[c][specKey(j.spec)] = true
		if j.spec.Graph.Edges == nil && len(byClass[c]) != 1 {
			t.Fatalf("class %q holds %d distinct pooled specs", c, len(byClass[c]))
		}
		other := j
		other.async = !j.async
		if other.class() == c {
			t.Fatalf("sync and async job share class %q", c)
		}
	}
	inline := 0
	for c, specs := range byClass {
		if strings.Contains(c, " inline ") && len(specs) > 1 {
			inline++
		}
	}
	if inline == 0 {
		t.Error("no inline class holds more than one graph")
	}
}

func TestSpecGeneratorsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(paperCoreSpecs(7, false), paperCoreSpecs(7, false)) {
		t.Error("paper-core specs differ for the same seed")
	}
	if reflect.DeepEqual(paperCoreSpecs(7, false), paperCoreSpecs(8, false)) {
		t.Error("paper-core specs equal across seeds")
	}
	if !reflect.DeepEqual(largeCSRGraph(7, false), largeCSRGraph(7, false)) || reflect.DeepEqual(largeCSRGraph(7, false), largeCSRGraph(8, false)) {
		t.Error("large-csr graph spec not a function of the seed alone")
	}
	a, b, c := newSvcGen(7), newSvcGen(7), newSvcGen(8)
	differs := false
	for i := 0; i < 3*svcBlock; i++ {
		ja, jb := a.job(i), b.job(i)
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("svc-mixed job %d differs for the same seed", i)
		}
		differs = differs || !reflect.DeepEqual(ja, c.job(i))
	}
	if !differs {
		t.Error("svc-mixed jobs equal across seeds")
	}
	// A job depends on (seed, index) alone, not on the order jobs are asked for.
	if !reflect.DeepEqual(newSvcGen(7).job(2*svcBlock+3), a.job(2*svcBlock+3)) {
		t.Error("svc-mixed job depends on generation order")
	}
}

func TestSvcBlockComposition(t *testing.T) {
	g := newSvcGen(3)
	var list, inline, faulty, async int
	seen := make(map[string]bool)
	for i := 0; i < svcBlock; i++ {
		j := g.job(svcBlock + i)
		if seen[specKey(j.spec)] {
			t.Errorf("spec repeats within a block: %+v", j.spec)
		}
		seen[specKey(j.spec)] = true
		switch {
		case j.spec.Algo == "list":
			list++
		case j.spec.Graph.Edges != nil:
			inline++
		case j.spec.Faults != nil:
			faulty++
		}
		if j.async {
			async++
		}
		if j.spec.Algo == "count" && j.spec.Graph.Generator == "planted" {
			t.Errorf("count on a disconnected planted graph: %+v", j.spec)
		}
		if j.spec.Parallel || j.spec.Shards != 0 {
			t.Errorf("spec sets a placement knob: %+v", j.spec)
		}
		if err := j.spec.Validate(); err != nil {
			t.Errorf("invalid spec: %v", err)
		}
	}
	if list != svcList || inline != svcInline || faulty != svcFaulty || async != svcAsync {
		t.Errorf("block has list=%d inline=%d faulty=%d async=%d", list, inline, faulty, async)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Job: "j", Name: rootSpan, Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: "j", Name: "core.a2", Start: 10, End: 30},
		{ID: 3, Parent: 1, Job: "j", Name: "core.a3", Start: 20, End: 50},        // overlaps 2
		{ID: 4, Parent: 1, Job: "j", Name: "oracle.verify", Start: 90, End: 120}, // outlives the root
		{ID: 5, Parent: 3, Job: "j", Name: "encode.result", Start: 25, End: 35},
		{ID: 6, Job: setupJob, Name: "graph.gen", Start: 0, End: 7}, // no job's time
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	if sum.jobs != 1 || sum.unattributed != 50 || sum.layerSelf["core"] != 40 || sum.layerSelf["oracle"] != 30 ||
		sum.layerSelf["graph"] != 0 || sum.setup["graph.gen"] != (spanAgg{1, 7}) {
		t.Errorf("summary %+v", sum)
	}
}

// TestSmoke runs every workload at test size through both invocation
// kinds and checks the layer reach the workloads were chosen for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 5, seconds: 0.2, trace: traced, dataDir: dir, tiny: true}
			rep, err := execute(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < w.cycle {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			if !traced {
				for _, name := range []string{"setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "cpu_ms_per_job", "alloc_mb_per_job", "peak_rss_mb", "ok_ratio"} {
					if v, ok := rep.Metrics[name]; !ok || v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %+v", w.name, name, v)
					}
				}
				continue
			}
			m := rep.Metrics
			zero := func(names ...string) {
				for _, n := range names {
					if v, ok := m[n]; !ok || v.Value != 0 {
						t.Errorf("%s: %s = %+v, want a present zero", w.name, n, v)
					}
				}
			}
			positive := func(names ...string) {
				for _, n := range names {
					if m[n].Value <= 0 {
						t.Errorf("%s: %s = %+v, want > 0", w.name, n, m[n])
					}
				}
			}
			switch w.name {
			case "svc-mixed":
				positive("httpapi.rtt_ms", "httpapi.req_bytes", "journal.append_ms", "service.queue_wait_ms", "encode.result_ms", "session.graphs_cached")
				if got := m["journal.appends_per_job"].Value; got != 3 {
					t.Errorf("svc-mixed: journal.appends_per_job = %v, want 3", got)
				}
			case "paper-core":
				zero("journal.append_ms", "journal.appends_per_job", "httpapi.rtt_ms", "httpapi.req_bytes")
				positive("core.a2_ms", "core.a3_ms", "graph.gen_ms", "oracle.verify_ms")
			case "large-csr":
				zero("journal.append_ms", "journal.appends_per_job", "httpapi.rtt_ms", "core.a2_ms", "core.a3_ms")
				positive("agg.count_ms", "core.run_ms", "graph.gen_ms", "graph.csr_open_ms", "oracle.verify_ms")
			}
		}
	}
}

func TestCheckerCatchesNondeterminism(t *testing.T) {
	c := newChecker(2)
	if !c.check(0, outcome{key: "k", result: []byte(`{"a":1}`), verified: true}) {
		t.Fatal("first result rejected")
	}
	if !c.check(2, outcome{key: "k", result: []byte(`{"a":1}`), verified: true}) {
		t.Fatal("identical repeat rejected")
	}
	if c.check(4, outcome{key: "k", result: []byte(`{"a":2}`), verified: true}) {
		t.Error("differing repeat accepted")
	}
	if c.check(5, outcome{key: "x", result: []byte(`{}`)}) {
		t.Error("unverified job accepted")
	}
	if c.check(6, outcome{key: "y", err: errors.New("boom"), verified: true}) {
		t.Error("failed job accepted")
	}
	if c.attempted != 5 || c.failed != 3 {
		t.Errorf("attempted=%d failed=%d, want 5 and 3", c.attempted, c.failed)
	}
}

func TestRefusesOversubscribedProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	if _, err := provenance(config{}); err == nil {
		t.Error("GOMAXPROCS > NumCPU was not refused")
	}
}

// TestMetricNamesMatchBenchmarkFile keeps the printed metric names equal
// to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		want := make(map[string]string)
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		gotUnits := make(map[string]string)
		for n, m := range got {
			gotUnits[n] = m.Unit
		}
		if !reflect.DeepEqual(gotUnits, want) {
			t.Errorf("%s metrics %v differ from BENCHMARK.json %v", kind, gotUnits, want)
		}
	}
	e2e, _ := endToEnd(phaseStats{}, 1, 0)
	check("end_to_end", file.EndToEnd, e2e)
	check("per_layer", file.PerLayer, perLayer(summarize(nil), newCounts(), phaseStats{}, phaseStats{}, 1, &oneShotBench{}))
}

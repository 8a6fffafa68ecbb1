package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. All spans of one job share Job;
// Parent is the span that made the call (0 for a job's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// rootSpan names every job's root span; everything under it that no
// layer span covers is reported as unattributed.
const rootSpan = "job"

// setupJob is the job id of spans recorded while a workload is set up.
// They are summed apart from the jobs' spans: they feed graph.gen_ms on
// large-csr, whose generator runs in set-up, but no job's time.
const setupJob = "setup"

// tracer keeps finished spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// begin opens a span starting now; end closes and keeps it.
func (t *tracer) begin(job string, parent int64, name string) span {
	return span{ID: t.next.Add(1), Parent: parent, Job: job, Name: name, Start: t.at(time.Now())}
}

func (t *tracer) end(s span) span {
	s.End = t.at(time.Now())
	t.keep(s)
	return s
}

// record keeps a span timed elsewhere (segment boundaries seen by an
// observer, for example).
func (t *tracer) record(job string, parent int64, name string, start, end time.Time) {
	t.keep(span{ID: t.next.Add(1), Parent: parent, Job: job, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) keep(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; the parts of a child outside its parent do not count).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerOf maps a span name to the module it times: the part before the
// first dot ("core.a2" -> "core"). The root span belongs to no layer.
func layerOf(name string) string {
	if name == rootSpan {
		return ""
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanSummary aggregates a traced run's spans.
type spanSummary struct {
	jobs         int
	total        map[string]time.Duration // summed span duration by name
	count        map[string]int           // spans by name
	layerSelf    map[string]time.Duration // summed self time by layer
	unattributed time.Duration            // root self time, summed over jobs
	rootTotal    time.Duration
	byJob        map[string]map[string]spanAgg // per job, by name
	setup        map[string]spanAgg            // set-up spans, by name
}

// spanAgg is the spans of one name within one job.
type spanAgg struct {
	n int
	d time.Duration
}

func summarize(spans []span) spanSummary {
	self := selfTimes(spans)
	sum := spanSummary{
		total:     make(map[string]time.Duration),
		count:     make(map[string]int),
		layerSelf: make(map[string]time.Duration),
		byJob:     make(map[string]map[string]spanAgg),
		setup:     make(map[string]spanAgg),
	}
	for _, s := range spans {
		if s.Job == setupJob {
			a := sum.setup[s.Name]
			sum.setup[s.Name] = spanAgg{a.n + 1, a.d + s.dur()}
			continue
		}
		sum.total[s.Name] += s.dur()
		sum.count[s.Name]++
		if sum.byJob[s.Job] == nil {
			sum.byJob[s.Job] = make(map[string]spanAgg)
		}
		a := sum.byJob[s.Job][s.Name]
		sum.byJob[s.Job][s.Name] = spanAgg{a.n + 1, a.d + s.dur()}
		if s.Name == rootSpan {
			sum.jobs++
			sum.rootTotal += s.dur()
			sum.unattributed += self[s.ID]
			continue
		}
		sum.layerSelf[layerOf(s.Name)] += self[s.ID]
	}
	return sum
}

// perJobMs is a name's summed duration per traced job, in milliseconds.
func (s spanSummary) perJobMs(name string) float64 {
	return ratio(ms(s.total[name]), float64(s.jobs))
}

// meanMs is a name's mean span duration in milliseconds.
func (s spanSummary) meanMs(name string) float64 {
	return ratio(ms(s.total[name]), float64(s.count[name]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s spanSummary) String() string {
	var b strings.Builder
	layers := make([]string, 0, len(s.layerSelf))
	for l := range s.layerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(&b, "%s=%.1f%% ", l, 100*ratio(float64(s.layerSelf[l]), float64(s.rootTotal)))
	}
	fmt.Fprintf(&b, "unattributed=%.1f%%", 100*ratio(float64(s.unattributed), float64(s.rootTotal)))
	return b.String()
}

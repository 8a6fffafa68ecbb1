package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/congest"
	"repro/internal/httpapi"
	"repro/internal/journal"
)

// traceHeader carries "<job> <parent span id>" from a traced client
// request to the server-side handler span.
const traceHeader = "X-Jobbench-Span"

// svcBench is the triserve stack in-process: the production HTTP handler
// over a journaled Service, served on a loopback listener.
type svcBench struct {
	gen    *svcGen
	dir    string
	svc    *congest.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	jw     *journal.Writer // the traced run's direct journal appends
}

func setupSvc(e *env) (bench, error) {
	dir := filepath.Join(e.dataDir, "svc", fmt.Sprintf("seed%d-setup%d", e.seed, e.rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc, err := congest.OpenService(congest.WithJournal(filepath.Join(dir, "service.journal")))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := httpapi.New(svc)
	if e.tr != nil {
		h = tracedHandler{next: h, tr: e.tr}
	}
	b := &svcBench{
		gen:    newSvcGen(e.seed),
		dir:    dir,
		svc:    svc,
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { b.served <- b.srv.Serve(ln) }()
	if e.tr != nil {
		if b.jw, _, err = journal.Open(filepath.Join(dir, "direct.journal")); err != nil {
			b.close()
			return nil, err
		}
	}
	// Warm-up: one cheap job per pooled graph fills the session's graph
	// cache and engine pools, as a running server's would be.
	for _, gs := range b.gen.graphs() {
		spec := congest.JobSpec{Graph: gs, Algo: "tester", Seed: 1}
		body, _ := json.Marshal(spec)
		res, _, err := b.post(context.Background(), "/v1/run", body, "", nil)
		if err == nil && (res.Verify == nil || !res.Verify.OK) {
			err = errors.New("warm-up job failed verification")
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *svcBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.client.CloseIdleConnections()
	b.svc.Close()
	if b.jw != nil {
		if jerr := b.jw.Close(); err == nil {
			err = jerr
		}
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// graphsCached is how many graphs the service's session holds once jobs
// jobs have been issued: the warmed pool plus one per inline job, since
// every inline graph is one-off.
func (b *svcBench) graphsCached(jobs int) int {
	n := len(b.gen.graphs()) + svcInline*(jobs/svcBlock)
	for i := jobs - jobs%svcBlock; i < jobs; i++ {
		if b.gen.job(i).spec.Graph.Edges != nil {
			n++
		}
	}
	return n
}

func (b *svcBench) run(ctx context.Context, i int, jt *jobTrace) (o outcome) {
	job := b.gen.job(i)
	body, _ := json.Marshal(job.spec)
	o.key = string(body)
	defer func() { o.class = job.class() }()
	if jt == nil {
		t0 := time.Now()
		res, _, err := b.request(ctx, body, job.async, "", nil)
		return resultOutcome(o.key, res, err, time.Since(t0))
	}

	// Traced: the end-to-end request first (with the session's graph
	// lookup split out before it), then the direct layer calls on the
	// same spec. Pooled graphs were warmed at set-up; inline ones are
	// one-off, so they miss.
	root := jt.begin(0, rootSpan)
	defer func() { jt.end(root) }()
	hit := job.spec.Graph.Edges == nil
	if _, err := jt.graphCall(b.svc.Session(), job.spec.Graph, root.ID, hit); err != nil {
		o.err = err
		return o
	}
	rtt := jt.begin(root.ID, "httpapi.rtt")
	res, status, err := b.request(ctx, body, job.async, fmt.Sprintf("%s %d", jt.job, rtt.ID), jt.c)
	rtt = jt.end(rtt)
	o = resultOutcome(o.key, res, err, rtt.dur())
	if status == http.StatusTooManyRequests {
		jt.c.add("service.saturated", 1)
	}
	if o.err != nil {
		return o
	}

	// The in-process job: the same spec submitted straight to the
	// Service with a timing observer. Its first callback marks the end of
	// its queue wait; its Result must match the HTTP reply byte for byte.
	obs := &segObserver{}
	bytes0, mallocs0 := allocTotals()
	sj := jt.begin(root.ID, "service.job")
	submitted := time.Now()
	j, err := b.svc.SubmitJobObserved(congest.SubmitRequest{Spec: job.spec}, obs)
	var replay congest.Result
	if err == nil {
		replay, err = j.Wait(ctx)
	}
	jt.end(sj)
	bytes1, mallocs1 := allocTotals()
	if err != nil {
		o.err = fmt.Errorf("service replay: %w", err)
		return o
	}
	if !obs.first.IsZero() {
		jt.tr.record(jt.job, sj.ID, "service.queue_wait", submitted, obs.first)
	}
	obs.emit(jt, sj.ID, job.spec.Algo)
	if job.spec.Algo != "count" { // count runs report nothing to the observer
		jt.c.add("core.bytes", float64(bytes1-bytes0))
		jt.c.add("core.mallocs", float64(mallocs1-mallocs0))
		jt.c.add("core.jobs", 1)
		jt.simCounts(replay)
	}
	if again, _ := json.Marshal(replay); !bytes.Equal(again, o.result) {
		o.err = errors.New("service replay returned different Result bytes than the HTTP reply")
		return o
	}

	g, err := b.svc.Session().Graph(job.spec.Graph)
	if err != nil {
		o.err = err
		return o
	}
	s := jt.begin(root.ID, "oracle.verify")
	rep := oracleCheck(g, job.spec, res, 1) // a Service's oracle is single-worker
	jt.end(s)
	if err := sameOutcome(res, replay, rep); err != nil {
		o.err = err
		return o
	}
	jt.encode(root.ID, res)
	o.err = b.journalAppends(jt, root.ID, job.spec, res)
	return o
}

// journalAppends makes the three fsync'd appends the service's job store
// makes per job (submitted, running, terminal) against the benchmark's
// own journal, each timed.
func (b *svcBench) journalAppends(jt *jobTrace, parent int64, spec congest.JobSpec, res congest.Result) error {
	type record struct {
		ID     string           `json:"id"`
		Spec   *congest.JobSpec `json:"spec,omitempty"`
		Status string           `json:"status,omitempty"`
		Result *congest.Result  `json:"result,omitempty"`
	}
	recs := []record{{ID: jt.job, Spec: &spec}, {ID: jt.job, Status: "running"}, {ID: jt.job, Status: "done", Result: &res}}
	for k, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return err
		}
		s := jt.begin(parent, "journal.append")
		err = b.jw.Append(uint32(k+1), payload)
		jt.end(s)
		if err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		jt.c.add("journal.bytes", float64(len(payload)))
	}
	return nil
}

// request runs one job over HTTP: a synchronous POST /v1/run, or an async
// POST /v1/jobs followed by long-poll GETs until the job is terminal. It
// returns the decoded Result and the last HTTP status.
func (b *svcBench) request(ctx context.Context, body []byte, async bool, trace string, c *counts) (congest.Result, int, error) {
	if !async {
		return b.post(ctx, "/v1/run", body, trace, c)
	}
	var view struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Result *congest.Result `json:"result"`
		Error  string          `json:"error"`
	}
	status, err := b.do(ctx, http.MethodPost, "/v1/jobs", body, trace, c, http.StatusAccepted, &view)
	for err == nil {
		switch congest.JobStatus(view.Status) {
		case congest.JobDone:
			if view.Result == nil {
				return congest.Result{}, status, errors.New("done job without a result")
			}
			return *view.Result, status, nil
		case congest.JobCancelled, congest.JobFailed:
			return congest.Result{}, status, fmt.Errorf("job %s %s: %s", view.ID, view.Status, view.Error)
		}
		status, err = b.do(ctx, http.MethodGet, "/v1/jobs/"+view.ID+"?wait=30s", nil, trace, c, http.StatusOK, &view)
	}
	return congest.Result{}, status, err
}

func (b *svcBench) post(ctx context.Context, path string, body []byte, trace string, c *counts) (congest.Result, int, error) {
	var res congest.Result
	status, err := b.do(ctx, http.MethodPost, path, body, trace, c, http.StatusOK, &res)
	return res, status, err
}

// do makes one HTTP call, expecting status want, and decodes the reply
// into out.
func (b *svcBench) do(ctx context.Context, method, path string, body []byte, trace string, c *counts, want int, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c != nil {
		c.add("httpapi.req_bytes", float64(len(body)))
		c.add("httpapi.resp_bytes", float64(len(data)))
		if resp.StatusCode/100 != 2 {
			c.add("httpapi.non2xx", 1)
		}
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// tracedHandler records a server-side span around every request that
// carries the trace header.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	job, parent, ok := strings.Cut(r.Header.Get(traceHeader), " ")
	id, err := strconv.ParseInt(parent, 10, 64)
	if !ok || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	s := h.tr.begin(job, id, "httpapi.handler")
	h.next.ServeHTTP(w, r)
	h.tr.end(s)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/congest"
	"repro/internal/graph"
)

// oneShotBench runs a fixed cycle of specs one at a time through the
// one-shot congest.Run, which builds a fresh session, graph and engine
// per job, as a CLI or batch caller does.
type oneShotBench struct {
	specs []congest.JobSpec
}

func setupPaperCore(e *env) (bench, error) {
	specs := paperCoreSpecs(e.seed, e.tiny)
	// Materialize each input once so a bad spec fails set-up, not a job.
	for _, s := range specs {
		if _, err := congest.LoadGraph(s.Graph); err != nil {
			return nil, err
		}
	}
	return &oneShotBench{specs: specs}, nil
}

// largeCSRFile is the large-csr graph file, under the data directory's
// graphs/ so a server's data root can point at it.
func largeCSRFile(dataDir string) string {
	return filepath.Join(dataDir, "graphs", "large-csr.csrbin")
}

func setupLargeCSR(e *env) (bench, error) {
	path := largeCSRFile(e.dataDir)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	var gen span
	if e.tr != nil {
		gen = e.tr.begin(setupJob, 0, "graph.gen")
	}
	g, err := congest.LoadGraph(largeCSRGraph(e.seed, e.tiny))
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		e.tr.end(gen)
		e.counts.add("graph.edges", float64(g.M()))
	}
	if err := writeCSR(path, g); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	specs := largeCSRSpecs(e.seed, path)
	if _, err := congest.LoadGraph(specs[0].Graph); err != nil {
		return nil, err
	}
	return &oneShotBench{specs: specs}, nil
}

// writeCSR writes g as a .csrbin file, through a temporary name so a
// reader never sees a partial file.
func writeCSR(path string, g *graph.Graph) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := graph.WriteCSRBinary(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (b *oneShotBench) close() error { return nil }

func (b *oneShotBench) run(ctx context.Context, i int, jt *jobTrace) outcome {
	spec := b.specs[i%len(b.specs)]
	key := specKey(spec)
	if jt != nil {
		return b.traced(ctx, spec, key, jt)
	}
	t0 := time.Now()
	res, err := congest.Run(ctx, spec)
	lat := time.Since(t0)
	return resultOutcome(key, res, err, lat)
}

// resultOutcome turns an end-to-end job's reply into an outcome.
func resultOutcome(key string, res congest.Result, err error, lat time.Duration) outcome {
	o := outcome{key: key, latency: lat, err: err}
	if err != nil {
		return o
	}
	o.verified = res.Verify != nil && res.Verify.OK
	o.result, o.err = json.Marshal(res)
	return o
}

// traced makes the job's layer calls directly, each in its own span, in
// place of the opaque congest.Run: Session.Graph on a fresh session (the
// ingest a one-shot run pays), Session.RunObserved with verification off
// and a segment-timing observer, the oracle check, and the Result
// encoding. The replay must reproduce the end-to-end job seen earlier in
// the same invocation.
func (b *oneShotBench) traced(ctx context.Context, spec congest.JobSpec, key string, jt *jobTrace) (o outcome) {
	o.key = key
	root := jt.begin(0, rootSpan)
	defer func() {
		root = jt.end(root)
		o.latency = root.dur()
	}()
	e2eBytes, ok := jt.e2e(key)
	if !ok {
		o.err = fmt.Errorf("no end-to-end result to compare the traced replay with")
		return o
	}
	var e2e congest.Result
	if err := json.Unmarshal(e2eBytes, &e2e); err != nil {
		o.err = err
		return o
	}

	sess := congest.NewSession()
	g, err := jt.graphCall(sess, spec.Graph, root.ID, false)
	if err != nil {
		o.err = err
		return o
	}
	name := "session.run"
	if spec.Algo == "count" {
		name = "agg.count" // the counter reports no segments to an observer
	}
	obs := &segObserver{}
	quiet := spec
	quiet.Verify = congest.VerifyNone
	bytes0, mallocs0 := allocTotals()
	run := jt.begin(root.ID, name)
	res, err := sess.RunObserved(ctx, quiet, obs)
	jt.end(run)
	bytes1, mallocs1 := allocTotals()
	if err != nil {
		o.err = err
		return o
	}
	obs.emit(jt, run.ID, spec.Algo)
	jt.c.add("core.bytes", float64(bytes1-bytes0))
	jt.c.add("core.mallocs", float64(mallocs1-mallocs0))
	jt.c.add("core.jobs", 1)
	jt.simCounts(res)

	s := jt.begin(root.ID, "oracle.verify")
	rep := oracleCheck(g, spec, res, 0) // a one-shot session's oracle uses every CPU
	jt.end(s)
	res.Verify = &rep
	jt.encode(root.ID, res)

	o.err = sameOutcome(e2e, res, rep)
	o.verified = rep.OK
	return o
}

package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// span is one timed interval of the traced run.  Spans form a tree through
// Parent: run → job or evaluation → batch, plus the replay spans under the
// run.  Times are offsets from the recorder's start.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	parent *span
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one traced run in memory; write dumps them
// when the run ends.  It is safe for concurrent use.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []*span
	// parent is the span new batches attach to (the evaluation or job the
	// benchmark is currently driving).
	parent *span
	// tasks are the completed subproblems of every recorded batch, in
	// completion order, for the single-threaded solver replay.
	tasks []recordedTask
}

// recordedTask is one completed subproblem with the batch options it was
// solved under and the cost the transport reported.
type recordedTask struct {
	Formula     *cnf.Formula
	Assumptions []cnf.Lit
	Budget      solver.Budget
	Metric      solver.CostMetric
	Cost        float64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// begin opens a span under parent (nil: the root).
func (r *recorder) begin(name string, parent *span) *span {
	s := &span{Name: name, Start: r.now(), parent: parent}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// end closes a span, attaching attributes.
func (r *recorder) end(s *span, attrs map[string]float64) {
	end := r.now()
	r.mu.Lock()
	s.End = end
	s.Attrs = attrs
	r.mu.Unlock()
}

// setParent makes p the parent of the batches that start from now on.
func (r *recorder) setParent(p *span) {
	r.mu.Lock()
	r.parent = p
	r.mu.Unlock()
}

func (r *recorder) currentParent() *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parent
}

// named returns the finished spans with the given name.
func (r *recorder) named(name string) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedTransport times every batch it forwards to the wrapped transport and
// records the completed tasks for the solver replay.  wrapTransport adds
// RunDispatch only when the wrapped transport has it, so the runner takes the
// same dispatch branch with or without tracing.
type tracedTransport struct {
	inner   cluster.AbortableTransport
	formula *cnf.Formula
	rec     *recorder
}

// tracedDispatch is tracedTransport over a cluster.DispatchTransport.
type tracedDispatch struct {
	*tracedTransport
	dispatch cluster.DispatchTransport
}

// wrapTransport returns a tracing wrapper exposing exactly the optional
// interfaces of inner, which solves subproblems of f.
func wrapTransport(inner cluster.AbortableTransport, f *cnf.Formula, rec *recorder) cluster.Transport {
	t := &tracedTransport{inner: inner, formula: f, rec: rec}
	if d, ok := inner.(cluster.DispatchTransport); ok {
		return tracedDispatch{t, d}
	}
	return t
}

func (t *tracedTransport) Workers() int { return t.inner.Workers() }

func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) Run(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions) ([]cluster.TaskResult, error) {
	var res []cluster.TaskResult
	var err error
	t.timed(tasks, opts, func() { res, err = t.inner.Run(ctx, tasks, opts) }, &res)
	return res, err
}

func (t *tracedTransport) RunObserved(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult)) ([]cluster.TaskResult, error) {
	var res []cluster.TaskResult
	var err error
	t.timed(tasks, opts, func() { res, err = t.inner.RunObserved(ctx, tasks, opts, observe) }, &res)
	return res, err
}

func (t *tracedTransport) RunAbortable(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, error) {
	var res []cluster.TaskResult
	var err error
	t.timed(tasks, opts, func() { res, err = t.inner.RunAbortable(ctx, tasks, opts, observe, abort) }, &res)
	return res, err
}

func (t tracedDispatch) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	var res []cluster.TaskResult
	var ds cluster.DispatchStats
	var err error
	t.timed(tasks, opts, func() { res, ds, err = t.dispatch.RunDispatch(ctx, tasks, opts, observe, abort) }, &res)
	return res, ds, err
}

// timed runs one batch inside a "batch" span.  The span records the task
// count, the slot count, the summed solver time of the batch's tasks and
// how many tasks a batch abort or cancellation cut short.
func (t *tracedTransport) timed(tasks []cluster.Task, opts cluster.BatchOptions, run func(), results *[]cluster.TaskResult) {
	s := t.rec.begin("batch", t.rec.currentParent())
	slots := t.inner.Workers()
	run()
	var solve time.Duration
	aborted := 0
	done := make([]recordedTask, 0, len(*results))
	for _, res := range *results {
		solve += res.Stats.SolveTime
		if !res.Started || res.Cancelled {
			aborted++
			continue
		}
		if res.Index >= 0 && res.Index < len(tasks) {
			done = append(done, recordedTask{
				Formula:     t.formula,
				Assumptions: tasks[res.Index].Assumptions,
				Budget:      opts.Budget,
				Metric:      opts.CostMetric,
				Cost:        res.Cost,
			})
		}
	}
	t.rec.end(s, map[string]float64{
		"tasks":    float64(len(tasks)),
		"slots":    float64(slots),
		"solve_ns": float64(solve),
		"aborted":  float64(aborted),
	})
	t.rec.mu.Lock()
	t.rec.tasks = append(t.rec.tasks, done...)
	t.rec.mu.Unlock()
}

// relay is a byte-counting TCP proxy between a worker and the leader: the
// worker dials the relay, which forwards every byte in both directions.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(up, c)
		go r.pipe(c, up)
	}
}

// pipe copies src to dst, counting the bytes, and closes both ends when
// either side finishes.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// estimateWorkload repeats Session.EstimateSet on one decomposition set for
// the whole measuring window, with the zero evaluation policy (the classic
// full-sample pipeline, bit-identical across transports).
//
// With blockEvals set, the window moves to the family's next instance after
// every blockEvals evaluations: it closes the session and opens one over
// instance k+1 (seed instanceSeed(seed, k+1)).  A run then averages over
// many secrets, whose subproblem costs differ, while holding one instance
// in memory.  The time spent switching instances is not measured.
type estimateWorkload struct {
	transport  transportKind
	slots      int
	sampleSize int
	blockEvals int // 0: one instance for the whole window
	// set picks the decomposition set from the instance's start set.
	set func(start []cnf.Var) []cnf.Var
	// reference re-runs the window's evaluation sequence in-process after
	// the window and requires bit-identical F values.
	reference bool
}

// bestPrefix is how many leading evaluations best_log10_f covers on the
// estimate workloads, so that it is a deterministic function of the seed.
const bestPrefix = 10

// instanceSeed is the secret and sample seed of instance k of a run.
func instanceSeed(seed int64, k int) int64 { return seed + 1_000_003*int64(k) }

// estimateWindow is what one measuring window observed.
type estimateWindow struct {
	fs        []float64
	latencies []float64 // wall ms per EstimateSet call
	cpuLat    []float64 // process CPU ms per EstimateSet call
	solved    int
	props     uint64
	wall      time.Duration // measured time, without instance switches
	cpu       time.Duration // process CPU time over the same spans
	instances int
	setups    []setupTiming // of the instances after the first
	evalSpans []*span
	wire      int64
	allocs    allocCounter // traced windows only
}

func (w estimateWorkload) envConfig(seed int64, k int, problem *pdsat.Problem, rec *recorder) envConfig {
	s := instanceSeed(seed, k)
	rc := pdsat.DefaultConfig().Runner
	rc.SampleSize = w.sampleSize
	rc.Seed = s
	rc.CostMetric = pdsat.CostPropagations
	rc.Workers = w.slots
	rc.SubproblemBudget = taskBudget
	return envConfig{instanceSeed: s, transport: w.transport, slots: w.slots, runner: rc, trace: rec, problem: problem}
}

func (w estimateWorkload) run(p params, out *report) error {
	setups, e, err := repeatSetup(w.envConfig(p.seed, 0, nil, nil))
	if err != nil {
		return err
	}
	problem := e.problem
	vars := w.set(problem.StartSet)
	fmt.Printf("instance %s: %d variables, %d clauses; set of %d of %d start variables, N=%d, %d slot(s)\n",
		problem.Name, problem.Formula.NumVars, len(problem.Formula.Clauses), len(vars), len(problem.StartSet), w.sampleSize, w.slots)

	win := w.window(e, p.seed, vars, p.seconds, 1, nil, out)
	out.setups = append(setups, win.setups...)
	out.rss = peakRSSMB()
	if w.reference {
		w.checkReference(p.seed, win, vars, out)
	}
	w.emitEndToEnd(win, out)
	printEstimates("F", win)

	if !p.trace {
		return nil
	}
	rec := newRecorder()
	out.rec = rec
	te, err := newEnv(w.envConfig(p.seed, 0, problem, rec))
	if err != nil {
		return err
	}
	traced := w.window(te, p.seed, vars, p.seconds, 1, rec, out)
	printEstimates("traced F", traced)
	n := min(len(traced.fs), len(win.fs))
	out.check(sameFloats(traced.fs[:n], win.fs[:n]), "traced F sequence equals the untraced one")

	w.emitTraceLayers(win, traced, rec, out)
	replayInto(rec, p.seconds, out)
	return nil
}

// window runs EstimateSet on vars, starting on the prepared environment e,
// until the window has measured seconds and made at least minEvals
// evaluations.  It closes every environment it used.  With a recorder
// every call is an "eval" span that the transport's batches attach to, and
// the loopback relays count the wire bytes.
func (w estimateWorkload) window(e *env, seed int64, vars []cnf.Var, seconds time.Duration, minEvals int, rec *recorder, out *report) estimateWindow {
	ctx := context.Background()
	win := estimateWindow{instances: 1}
	before := e.sess.Stats()
	var wire0 int64
	if e.relay != nil {
		wire0 = e.relay.bytes.Load()
	}
	// finish closes the current instance's block: its counters, its ledger
	// and its wire bytes.
	finish := func() {
		if rec != nil {
			win.allocs.stop()
		}
		after := e.sess.Stats()
		win.solved += after.SubproblemsSolved - before.SubproblemsSolved
		win.props += after.Solver.Propagations - before.Solver.Propagations
		checkLedger(after, out)
		if e.relay != nil {
			win.wire += e.relay.bytes.Load() - wire0
		}
		e.close()
	}
	if rec != nil {
		win.allocs.start()
	}
	var block stopwatch
	block.start()
	for i := 0; i < minEvals || win.wall+block.wallSince() < seconds; i++ {
		if w.blockEvals > 0 && i > 0 && i%w.blockEvals == 0 {
			block.addTo(&win.wall, &win.cpu)
			finish()
			// Free the closed instance before building the next, so that
			// peak_rss_mb measures one instance's working set rather than
			// when the collector last ran.
			runtime.GC()
			next, err := newEnv(w.envConfig(seed, i/w.blockEvals, nil, rec))
			if !out.op(err, "instance set-up") {
				e = nil
				break
			}
			e = next
			win.instances++
			win.setups = append(win.setups, e.timing)
			before = e.sess.Stats()
			if e.relay != nil {
				wire0 = e.relay.bytes.Load()
			}
			if rec != nil {
				win.allocs.start()
			}
			block.start()
		}
		var sp *span
		if rec != nil {
			sp = rec.begin("eval", nil)
			rec.setParent(sp)
		}
		var call stopwatch
		call.start()
		est, err := e.sess.EstimateSet(ctx, vars)
		lat, cpu := call.lap()
		if rec != nil {
			rec.end(sp, nil)
			win.evalSpans = append(win.evalSpans, sp)
		}
		if !out.op(err, "EstimateSet") {
			break
		}
		win.latencies = append(win.latencies, ms(lat))
		win.cpuLat = append(win.cpuLat, ms(cpu))
		win.fs = append(win.fs, est.Estimate.Value)
	}
	if e != nil {
		block.addTo(&win.wall, &win.cpu)
		finish()
	}
	return win
}

// checkReference re-runs the window's evaluation sequence on fresh
// in-process sessions over the same instances and seeds, each encoded again
// from its seed, and requires every F to match bit for bit.
func (w estimateWorkload) checkReference(seed int64, win estimateWindow, vars []cnf.Var, out *report) {
	ref := w
	ref.transport = inproc
	ref.slots = solveSlots
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i, f := range win.fs {
		if k := ref.block(i); i == 0 || k != ref.block(i-1) {
			if e != nil {
				e.close()
			}
			var err error
			e, err = newEnv(ref.envConfig(seed, k, nil, nil))
			if !out.op(err, "reference session") {
				e = nil
				return
			}
		}
		est, err := e.sess.EstimateSet(context.Background(), vars)
		if !out.op(err, "reference EstimateSet") {
			return
		}
		if est.Estimate.Value != f {
			out.check(false, fmt.Sprintf("evaluation %d: F %v over the cluster, %v in-process", i, f, est.Estimate.Value))
			return
		}
	}
	out.check(true, "cluster F sequence equals the in-process reference")
}

// block is the instance index of evaluation i.
func (w estimateWorkload) block(i int) int {
	if w.blockEvals == 0 {
		return 0
	}
	return i / w.blockEvals
}

func (w estimateWorkload) emitEndToEnd(win estimateWindow, out *report) {
	best := math.Inf(1)
	for _, f := range win.fs[:min(bestPrefix, len(win.fs))] {
		best = math.Min(best, f)
	}
	emitRates(win.solved, len(win.fs), win.wall, win.cpu, win.latencies, win.cpuLat, out)
	out.set("best_log10_f", math.Log10(best))
}

// emitTraceLayers derives the cluster and runner metrics of a traced window.
func (w estimateWorkload) emitTraceLayers(untraced, traced estimateWindow, rec *recorder, out *report) {
	batches := rec.named("batch")
	tasks := sumAttr(batches, "tasks")
	emitClusterLayer(batches, float64(traced.wire), out)
	var self time.Duration
	for _, ev := range traced.evalSpans {
		var kids []*span
		for _, b := range batches {
			if b.parent == ev {
				kids = append(kids, b)
			}
		}
		self += ev.dur() - unionLength(kids)
	}
	evals := float64(len(traced.fs))
	out.set("runner.self_us_per_task", ratio(us(self), tasks))
	out.set("runner.batches_per_eval", ratio(float64(len(batches)), evals))
	out.set("runner.alloc_kb_per_eval", ratio(float64(traced.allocs.bytes)/1024, evals))
	out.set("runner.allocs_per_eval", ratio(float64(traced.allocs.mallocs), evals))
	// The overhead compares the two windows over the evaluations both
	// completed, which are the same subproblems.
	n := min(len(traced.cpuLat), len(untraced.cpuLat))
	overhead := 1 - ratio(sum(untraced.cpuLat[:n]), sum(traced.cpuLat[:n]))
	tracedRate := ratio(float64(traced.solved), traced.cpu.Seconds())
	fmt.Printf("tracing overhead %.3f: %.1f subproblems per CPU second traced, %.1f untraced\n",
		overhead, tracedRate, ratio(float64(untraced.solved), untraced.cpu.Seconds()))
	out.set("trace.subproblems_per_cpu_s", tracedRate)
	out.set("trace.overhead_share", overhead)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// printEstimates prints every F of a window, for bit-for-bit comparison
// between runs.
func printEstimates(label string, win estimateWindow) {
	for i, f := range win.fs {
		fmt.Printf("%s[%d] = %.17g\n", label, i, f)
	}
	fmt.Printf("%s: %d evaluations over %d instance(s), total propagations %d\n", label, len(win.fs), win.instances, win.props)
}

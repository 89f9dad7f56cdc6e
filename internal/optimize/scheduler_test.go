package optimize

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// safeObjective wraps countingObjective for concurrent evaluation (the
// scheduler's width > 1 contract requires a concurrency-safe objective).
type safeObjective struct {
	mu    sync.Mutex
	inner *countingObjective
	delay time.Duration
}

func (o *safeObjective) ReserveSlots(int) int { return 0 }

func (o *safeObjective) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*eval.Evaluation, error) {
	if o.delay > 0 {
		select {
		case <-time.After(o.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.EvaluateF(ctx, p, incumbent, slot)
}

func (o *safeObjective) VarActivity(v cnf.Var) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.VarActivity(v)
}

// tracesEqual compares two search traces field by field.
func tracesEqual(t *testing.T, got, want []Visit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Point.Key() != w.Point.Key() || g.Value != w.Value ||
			g.Accepted != w.Accepted || g.Improved != w.Improved || g.Pruned != w.Pruned {
			t.Fatalf("trace[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// resultsEqual compares two full search results including the trace.
func resultsEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.BestValue != want.BestValue {
		t.Fatalf("best value %v, want %v", got.BestValue, want.BestValue)
	}
	if got.BestPoint.Key() != want.BestPoint.Key() {
		t.Fatalf("best point %v, want %v", got.BestPoint.SortedVars(), want.BestPoint.SortedVars())
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("evaluations %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Stop != want.Stop {
		t.Fatalf("stop reason %q, want %q", got.Stop, want.Stop)
	}
	tracesEqual(t, got.Trace, want.Trace)
}

// recordedVisit and recordedResult are the JSON form of a search Result
// kept under testdata/ as a fixed reference.
type recordedVisit struct {
	Index    int       `json:"index"`
	Vars     []cnf.Var `json:"vars"`
	Value    float64   `json:"value"`
	Accepted bool      `json:"accepted,omitempty"`
	Improved bool      `json:"improved,omitempty"`
	Pruned   bool      `json:"pruned,omitempty"`
}

type recordedResult struct {
	BestVars    []cnf.Var       `json:"best_vars"`
	BestValue   float64         `json:"best_value"`
	Evaluations int             `json:"evaluations"`
	Stop        StopReason      `json:"stop"`
	Trace       []recordedVisit `json:"trace"`
}

func recordResult(r *Result) recordedResult {
	rec := recordedResult{
		BestVars:    r.BestPoint.SortedVars(),
		BestValue:   r.BestValue,
		Evaluations: r.Evaluations,
		Stop:        r.Stop,
	}
	for _, v := range r.Trace {
		rec.Trace = append(rec.Trace, recordedVisit{
			Index: v.Index, Vars: v.Point.SortedVars(), Value: v.Value,
			Accepted: v.Accepted, Improved: v.Improved, Pruned: v.Pruned,
		})
	}
	return rec
}

// checkRecordedTrace compares a search result against the reference
// recorded in testdata/<name>.json.  The references were recorded from the
// original one-candidate-at-a-time search loops; regenerate them with
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run WidthOneBitIdentical ./internal/optimize
func checkRecordedTrace(t *testing.T, name string, got *Result) {
	t.Helper()
	path := filepath.Join("testdata", name+".json")
	rec := recordResult(got)
	if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing reference trace (record with PDSAT_UPDATE_GOLDENS=1): %v", err)
	}
	var want recordedResult
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(rec)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("search diverges from %s:\n got %s\nwant %s", path, gotJSON, wantJSON)
	}
}

// TestTabuScheduledWidthOneBitIdentical pins the scheduler's central
// regression anchor at this layer: MaxConcurrentEvals 0 and 1 both drive
// the whole search through the scheduler (pre-drawn visit order, runWave,
// handle chain) and must reproduce the recorded one-at-a-time tabu walk
// bit for bit — same RNG stream, same visits, same stop.
func TestTabuScheduledWidthOneBitIdentical(t *testing.T) {
	s := makeSpace(7)
	target := []cnf.Var{2, 5}
	run := func(width int) *Result {
		obj := newCountingObjective(target)
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
			Seed:               11,
			MaxEvaluations:     400,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkRecordedTrace(t, "tabu_sequential", run(0))
	checkRecordedTrace(t, "tabu_sequential", run(1))
}

// TestSAScheduledWidthOneBitIdentical is the same anchor for the
// simulated annealing: every wave holds exactly one candidate, so the
// pick/evaluate/accept/cool interleaving — including the acceptance RNG
// draws — matches the recorded one-at-a-time walk exactly.
func TestSAScheduledWidthOneBitIdentical(t *testing.T) {
	s := makeSpace(7)
	target := []cnf.Var{1, 4, 6}
	run := func(width int) *Result {
		obj := newCountingObjective(target)
		res, err := SimulatedAnnealing(context.Background(), obj, s.FullPoint(), Options{
			Seed:               13,
			MaxEvaluations:     600,
			InitialTemperature: 0.5,
			CoolingFactor:      0.97,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkRecordedTrace(t, "sa_sequential", run(0))
	checkRecordedTrace(t, "sa_sequential", run(1))
}

// TestTabuScheduledWideTraceMatchesSequential: without pruning, a wide
// tabu neighbourhood pass evaluates exactly the pre-drawn visit order the
// one-at-a-time search (width 0) walks, delivers results in that order,
// and the pass always runs to exhaustion — so even at width 4 the full
// trace is identical to width 0, not just the selected centres.
func TestTabuScheduledWideTraceMatchesSequential(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{3, 4}
	run := func(width int) *Result {
		obj := &safeObjective{inner: newCountingObjective(target)}
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
			Seed:               7,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(0)
	if seq.Stop != StopExhausted {
		t.Fatalf("sequential run stopped with %q, want exhaustion of the tiny space", seq.Stop)
	}
	resultsEqual(t, run(4), seq)
}

// TestTabuScheduledWideDeterministic: run-to-run determinism of the wide
// scheduler — completion order varies freely across runs (jittered
// objective latencies), selected centres, best F and the full trace must
// not.
func TestTabuScheduledWideDeterministic(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{1, 6}
	run := func(delay time.Duration) *Result {
		obj := &safeObjective{inner: newCountingObjective(target), delay: delay}
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
			Seed:               21,
			MaxConcurrentEvals: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resultsEqual(t, run(200*time.Microsecond), run(0))
}

// TestSAScheduledWideDeterministic: the annealing's speculative waves
// discard unprocessed members whole, so its walk is deterministic for a
// fixed seed regardless of how completions interleave.
func TestSAScheduledWideDeterministic(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{2, 3, 5}
	run := func(delay time.Duration) *Result {
		obj := &safeObjective{inner: newCountingObjective(target), delay: delay}
		res, err := SimulatedAnnealing(context.Background(), obj, s.FullPoint(), Options{
			Seed:               31,
			MaxEvaluations:     300,
			InitialTemperature: 0.4,
			CoolingFactor:      0.96,
			MaxConcurrentEvals: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(150*time.Microsecond), run(0)
	resultsEqual(t, a, b)
	if a.BestValue != 1 {
		t.Fatalf("wide SA missed the optimum: best=%v", a.BestValue)
	}
}

// TestScheduledNeighborhoodObserver: every scheduler pass reports one
// Neighborhood whose counters are internally consistent and account for
// the whole trace.
func TestScheduledNeighborhoodObserver(t *testing.T) {
	s := makeSpace(6)
	obj := &safeObjective{inner: newCountingObjective([]cnf.Var{2, 4})}
	var passes []Neighborhood
	res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
		Seed:                 9,
		MaxConcurrentEvals:   2,
		NeighborhoodObserver: func(nb Neighborhood) { passes = append(passes, nb) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) == 0 {
		t.Fatal("no neighbourhood passes observed")
	}
	evaluated := 0
	for i, nb := range passes {
		if nb.Width != 2 {
			t.Fatalf("pass %d width %d, want 2", i, nb.Width)
		}
		if nb.Candidates <= 0 || nb.Evaluated < 0 || nb.Pruned < 0 || nb.Cancelled < 0 {
			t.Fatalf("pass %d has inconsistent counters: %+v", i, nb)
		}
		if nb.Evaluated+nb.Cancelled > nb.Candidates {
			t.Fatalf("pass %d: evaluated %d + cancelled %d exceed candidates %d",
				i, nb.Evaluated, nb.Cancelled, nb.Candidates)
		}
		if nb.Radius <= 0 {
			t.Fatalf("pass %d radius %d", i, nb.Radius)
		}
		evaluated += nb.Evaluated
	}
	// Every trace entry after the start evaluation belongs to some pass.
	if want := len(res.Trace) - 1; evaluated != want {
		t.Fatalf("passes account for %d evaluations, trace has %d", evaluated, want)
	}
	if last := passes[len(passes)-1]; last.BestValue != res.BestValue {
		t.Fatalf("final pass best %v, result best %v", last.BestValue, res.BestValue)
	}
}

// TestScheduledSearchCancellation: cancelling mid-neighbourhood unwinds
// the frontier and ends both searches gracefully with StopContext.
func TestScheduledSearchCancellation(t *testing.T) {
	s := makeSpace(10)
	for _, method := range []string{"tabu", "sa"} {
		obj := &safeObjective{inner: newCountingObjective([]cnf.Var{5}), delay: time.Millisecond}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		opts := Options{Seed: 17, MaxConcurrentEvals: 4, InitialTemperature: 0.5}
		var res *Result
		var err error
		if method == "tabu" {
			res, err = TabuSearch(ctx, obj, s.FullPoint(), opts)
		} else {
			res, err = SimulatedAnnealing(ctx, obj, s.FullPoint(), opts)
		}
		cancel()
		if err != nil {
			t.Fatalf("%s: cancelled search returned error %v, want graceful result", method, err)
		}
		if res.Stop != StopContext {
			t.Fatalf("%s: stop reason %q, want %q", method, res.Stop, StopContext)
		}
	}
}

// TestFleetScheduledSharedIncumbent couples two scheduler-driven tabu
// members through a fleet's shared incumbent: each member's frontier
// waves seed their live bound from the global best, and the race still
// finds the optimum deterministically.
func TestFleetScheduledSharedIncumbent(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{2, 4}
	run := func(delay time.Duration) *FleetResult {
		members := make([]FleetMember, 2)
		for i := range members {
			members[i] = FleetMember{
				Method:    MethodTabu,
				Evaluator: &safeObjective{inner: newCountingObjective(target), delay: delay},
				Start:     s.FullPoint(),
				Opts: Options{
					Seed:               SubSeed(43, i),
					MaxEvaluations:     120,
					MaxConcurrentEvals: 2,
				},
			}
		}
		fr, err := RunFleet(context.Background(), members, FleetOptions{KeepRacing: true})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := run(100*time.Microsecond), run(0)
	if a.Best < 0 || a.BestValue != 1 {
		t.Fatalf("scheduled fleet missed the optimum: %+v", a)
	}
	if a.BestValue != b.BestValue || a.BestPoint.Key() != b.BestPoint.Key() {
		t.Fatalf("scheduled fleet best diverges run to run: %v/%v vs %v/%v",
			a.BestValue, a.BestPoint.SortedVars(), b.BestValue, b.BestPoint.SortedVars())
	}
	for i := range a.Members {
		resultsEqual(t, a.Members[i].Result, b.Members[i].Result)
	}
}

// TestValidateRejectsNegativeConcurrency covers the new option's guard.
func TestValidateRejectsNegativeConcurrency(t *testing.T) {
	if err := (Options{MaxConcurrentEvals: -1}).Validate(); err == nil {
		t.Fatal("negative MaxConcurrentEvals accepted")
	}
	if err := (Options{MaxConcurrentEvals: 8}).Validate(); err != nil {
		t.Fatalf("valid concurrency rejected: %v", err)
	}
}

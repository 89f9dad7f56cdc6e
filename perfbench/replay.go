package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// replayStats are the solver-layer figures of a single-threaded replay of
// recorded subproblems on one solver: the plain single-threaded baseline.
type replayStats struct {
	tasks      int
	resetUS    float64 // mean Reset time per task
	solveP50US float64
	solveP90US float64
	activityUS float64 // mean ConflictActivities export time per task
	resetShare float64 // Σreset / Σ(reset + solve + export)
	propsPerUS float64
	conflicts  float64 // mean conflicts per task
	propsP50   float64 // median propagations per task (the task's cost)
	allocB     float64 // bytes allocated per task
	allocs     float64 // allocations per task
	mismatches int
}

// replay re-solves the recorded tasks in order, one solver per formula, the
// way the in-process transport solves a pristine task (Reset, the batch's
// budget, solve, activity export), and recomputes each task's cost with
// solver.EffortCost.
// A cost that differs from the recorded one is a mismatch: the replay then
// did not time the subproblems the workload solved.  The replay stops after
// maxTime, so it covers a prefix of the recorded tasks.
func replay(opts solver.Options, tasks []recordedTask, maxTime time.Duration, rec *recorder) replayStats {
	solvers := make(map[*cnf.Formula]*solver.Solver)
	for _, t := range tasks {
		if solvers[t.Formula] == nil {
			solvers[t.Formula] = solver.New(t.Formula, opts)
		}
	}
	var rs replayStats
	var resetT, solveT, actT time.Duration
	var props, conflicts uint64
	solves := make([]float64, 0, len(tasks))
	costs := make([]float64, 0, len(tasks))
	sp := rec.begin("replay", nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, t := range tasks {
		if time.Since(start) > maxTime {
			break
		}
		s := solvers[t.Formula]
		t0 := time.Now()
		s.Reset()
		s.SetBudget(t.Budget)
		t1 := time.Now()
		res := s.SolveWithAssumptions(t.Assumptions)
		t2 := time.Now()
		s.ConflictActivities() // the per-task export the transport makes
		t3 := time.Now()
		cost := solver.EffortCost(s.Stats(), t.Metric)
		if cost != t.Cost {
			rs.mismatches++
		}
		resetT += t1.Sub(t0)
		solveT += t2.Sub(t1)
		actT += t3.Sub(t2)
		solves = append(solves, us(t2.Sub(t1)))
		costs = append(costs, cost)
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		rs.tasks++
	}
	runtime.ReadMemStats(&after)
	n := float64(rs.tasks)
	rec.end(sp, map[string]float64{
		"tasks":       n,
		"reset_ns":    float64(resetT),
		"solve_ns":    float64(solveT),
		"activity_ns": float64(actT),
		"mismatches":  float64(rs.mismatches),
	})
	if rs.tasks == 0 {
		return rs
	}
	rs.resetUS = us(resetT) / n
	rs.activityUS = us(actT) / n
	rs.solveP50US = median(solves)
	rs.solveP90US = quantile(solves, 0.9)
	rs.resetShare = ratio(float64(resetT), float64(resetT+solveT+actT))
	rs.propsPerUS = ratio(float64(props), us(solveT))
	rs.conflicts = float64(conflicts) / n
	rs.propsP50 = median(costs)
	rs.allocB = float64(after.TotalAlloc-before.TotalAlloc) / n
	rs.allocs = float64(after.Mallocs-before.Mallocs) / n
	return rs
}

func (rs replayStats) String() string {
	return fmt.Sprintf("replay: %d tasks, reset %.1fµs, solve p50 %.1fµs p90 %.1fµs, export %.1fµs, reset share %.3f, %d cost mismatches",
		rs.tasks, rs.resetUS, rs.solveP50US, rs.solveP90US, rs.activityUS, rs.resetShare, rs.mismatches)
}

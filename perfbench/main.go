// Command perfbench is the repository benchmark.  It runs one named workload
// through the public entry points for a fixed time and prints, as the last
// line of its standard output, one JSON object with the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a separate traced run).  It is
// a module of its own, built against the repository through a replace
// directive; from the repository root:
//
//	bash perfbench/run.sh --workload estimate-loopback --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - estimate-loopback: repeated Session.EstimateSet calls on a 30-variable
//     set over a cluster leader and one two-slot worker on 127.0.0.1,
//     moving to the family's next instance every sixteen calls.
//   - estimate-hard: repeated Session.EstimateSet calls on a 16-variable set
//     on the in-process transport with two workers, moving to the family's
//     next instance every eight calls.
//   - search-http: tabu and simulated-annealing search jobs submitted to the
//     HTTP job API, with their NDJSON event streams read through to "done".
//
// Every operation's failure is counted, and the run is correct only when
// none failed: see the checks in each workload.  success_rate is
// 1 - failed/attempted.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// params are the command-line parameters of one run.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workload runs one benchmark workload, filling the report.
type workload interface {
	run(p params, out *report) error
}

// workloads are the benchmark's named workloads.
var workloads = map[string]workload{
	"estimate-loopback": estimateWorkload{
		transport:  loopback,
		slots:      solveSlots,
		sampleSize: 200,
		blockEvals: 16,
		set:        func(start []cnf.Var) []cnf.Var { return start[:30] },
		reference:  true,
	},
	"estimate-hard": estimateWorkload{
		transport:  inproc,
		slots:      solveSlots,
		sampleSize: 12,
		blockEvals: 8,
		set:        func(start []cnf.Var) []cnf.Var { return start[len(start)-16:] },
	},
	"search-http": searchWorkload{},
}

// solveSlots is the number of solving slots, in-process or on the loopback
// worker, sized for a two-CPU machine.  The loopback worker gets both CPUs
// beside the leader: with one slot a CPU sits idle between results, and on
// a virtual machine waking it again made throughput swing by a factor of
// two with the host's load.
const solveSlots = 2

// metricDef declares a reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"subproblems_per_cpu_s", "1/s"},
	{"evals_per_cpu_s", "1/s"},
	{"eval_cpu_ms_p50", "ms"},
	{"eval_cpu_ms_p90", "ms"},
	{"best_log10_f", "log10"},
	{"peak_rss_mb", "MiB"},
	{"success_rate", "ratio"},
}

// perLayer are the metrics of a traced run.  A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"solver.reset_us", "us"},
	{"solver.solve_us_p50", "us"},
	{"solver.solve_us_p90", "us"},
	{"solver.activity_us", "us"},
	{"solver.reset_share", "ratio"},
	{"solver.props_per_us", "1/us"},
	{"solver.conflicts_per_task", "count"},
	{"solver.props_per_task_p50", "count"},
	{"solver.alloc_b_per_task", "B"},
	{"solver.allocs_per_task", "count"},
	{"cluster.batches", "count"},
	{"cluster.tasks_per_batch", "count"},
	{"cluster.batch_ms_p50", "ms"},
	{"cluster.batch_ms_p90", "ms"},
	{"cluster.overhead_us_per_task", "us"},
	{"cluster.slot_busy_share", "ratio"},
	{"cluster.aborted_share", "ratio"},
	{"cluster.wire_bytes_per_task", "B"},
	{"cluster.register_ms", "ms"},
	{"runner.self_us_per_task", "us"},
	{"runner.batches_per_eval", "count"},
	{"runner.alloc_kb_per_eval", "KiB"},
	{"runner.allocs_per_eval", "count"},
	{"eval.pruned_share", "ratio"},
	{"eval.cache_hit_share", "ratio"},
	{"eval.useful_task_share", "ratio"},
	{"eval.skipped_sample_share", "ratio"},
	{"optimize.neighborhoods", "count"},
	{"optimize.neighborhood_ms_p50", "ms"},
	{"optimize.neighborhood_ms_p90", "ms"},
	{"optimize.evals_per_neighborhood", "count"},
	{"pdsat.submit_ms", "ms"},
	{"pdsat.first_event_ms", "ms"},
	{"pdsat.events_per_job", "count"},
	{"pdsat.event_kb_per_job", "KiB"},
	{"pdsat.done_to_result_ms", "ms"},
	{"encoder.instance_ms", "ms"},
	{"setup.warmup_ms", "ms"},
	{"wall.subproblems_per_s", "1/s"},
	{"wall.evals_per_s", "1/s"},
	{"wall.eval_ms_p50", "ms"},
	{"wall.eval_ms_p90", "ms"},
	{"wall.cpu_busy_share", "ratio"},
	{"trace.subproblems_per_cpu_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// setupReps is how many times a run sets its environment up; setup_s is the
// median.
const setupReps = 7

// report collects a run's metrics and its operation ledger.
type report struct {
	attempted, failed int
	values            map[string]float64
	setups            []setupTiming
	evalCount         int
	rss               float64
	rec               *recorder
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op counts one attempted operation and reports whether it succeeded.
func (r *report) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one output check.
func (r *report) check(ok bool, what string) {
	var err error
	if !ok {
		err = errors.New("check failed")
	}
	r.op(err, what)
}

// set records a metric's value; its unit comes from endToEnd or perLayer.
func (r *report) set(name string, v float64) { r.values[name] = v }

// repeatSetup sets an environment up setupReps times, closing all but the
// last, and returns the timing of every attempt and the last environment.
func repeatSetup(cfg envConfig) ([]setupTiming, *env, error) {
	var timings []setupTiming
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = newEnv(cfg); err != nil {
			return nil, nil, err
		}
		timings = append(timings, e.timing)
	}
	return timings, e, nil
}

// checkLedger requires the session's sample ledger to balance.
func checkLedger(st pdsat.SessionStats, out *report) {
	ok := st.SamplesPlanned == st.SubproblemsSolved+st.SubproblemsAborted+st.SamplesSkipped
	out.check(ok, fmt.Sprintf("sample ledger planned %d == solved %d + aborted %d + skipped %d",
		st.SamplesPlanned, st.SubproblemsSolved, st.SubproblemsAborted, st.SamplesSkipped))
}

// emitSetup reports the run's set-up timings.
func emitSetup(setups []setupTiming, out *report) {
	var total, instance, register, warmup []float64
	for _, t := range setups {
		total = append(total, t.total.Seconds())
		instance = append(instance, ms(t.instance))
		register = append(register, ms(t.register))
		warmup = append(warmup, ms(t.warmup))
	}
	out.set("setup_s", median(total))
	out.set("encoder.instance_ms", median(instance))
	if setups[0].cluster {
		out.set("cluster.register_ms", median(register))
	}
	out.set("setup.warmup_ms", median(warmup))
}

// emitRates reports the untraced window's throughput and evaluation
// latency.  The end-to-end figures count process CPU time, which leaves
// out the time a shared virtual machine's hypervisor gives its CPUs to
// other guests and the time an idle CPU takes to wake; on two shared CPUs
// those moved wall-clock throughput between runs more than the bounds
// allow.  The wall-clock figures are reported with the per-layer metrics.
// lat and cpuLat are each evaluation's wall and CPU milliseconds.
func emitRates(solved, evals int, wall, cpu time.Duration, lat, cpuLat []float64, out *report) {
	out.evalCount = len(cpuLat)
	out.set("subproblems_per_cpu_s", ratio(float64(solved), cpu.Seconds()))
	out.set("evals_per_cpu_s", ratio(float64(evals), cpu.Seconds()))
	out.set("eval_cpu_ms_p50", median(cpuLat))
	out.set("eval_cpu_ms_p90", quantile(cpuLat, 0.9))
	out.set("wall.subproblems_per_s", ratio(float64(solved), wall.Seconds()))
	out.set("wall.evals_per_s", ratio(float64(evals), wall.Seconds()))
	out.set("wall.eval_ms_p50", median(lat))
	out.set("wall.eval_ms_p90", quantile(lat, 0.9))
	out.set("wall.cpu_busy_share", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
}

// emitClusterLayer derives the transport metrics from the batch spans;
// wire is the byte count the relay saw (0 without a relay).
func emitClusterLayer(batches []*span, wire float64, out *report) {
	var tasks, aborted, capacity, solve float64
	var durs []float64
	for _, b := range batches {
		tasks += b.Attrs["tasks"]
		aborted += b.Attrs["aborted"]
		solve += b.Attrs["solve_ns"]
		capacity += float64(b.dur()) * b.Attrs["slots"]
		durs = append(durs, ms(b.dur()))
	}
	out.set("cluster.batches", float64(len(batches)))
	out.set("cluster.tasks_per_batch", ratio(tasks, float64(len(batches))))
	out.set("cluster.batch_ms_p50", median(durs))
	out.set("cluster.batch_ms_p90", quantile(durs, 0.9))
	out.set("cluster.overhead_us_per_task", ratio((capacity-solve)/1e3, tasks))
	out.set("cluster.slot_busy_share", ratio(solve, capacity))
	out.set("cluster.aborted_share", ratio(aborted, tasks))
	out.set("cluster.wire_bytes_per_task", ratio(wire, tasks))
}

// replayInto replays the recorded tasks, single-threaded on one solver per
// instance, and reports the solver layer; a cost mismatch fails the run.
func replayInto(rec *recorder, seconds time.Duration, out *report) {
	rs := replay(pdsat.DefaultConfig().Runner.SolverOptions, rec.tasks, seconds, rec)
	fmt.Println(rs)
	out.check(rs.tasks > 0 && rs.mismatches == 0, "replayed task costs equal TaskResult.Cost")
	out.set("solver.reset_us", rs.resetUS)
	out.set("solver.solve_us_p50", rs.solveP50US)
	out.set("solver.solve_us_p90", rs.solveP90US)
	out.set("solver.activity_us", rs.activityUS)
	out.set("solver.reset_share", rs.resetShare)
	out.set("solver.props_per_us", rs.propsPerUS)
	out.set("solver.conflicts_per_task", rs.conflicts)
	out.set("solver.props_per_task_p50", rs.propsP50)
	out.set("solver.alloc_b_per_task", rs.allocB)
	out.set("solver.allocs_per_task", rs.allocs)
}

func sumAttr(spans []*span, key string) float64 {
	total := 0.0
	for _, s := range spans {
		total += s.Attrs[key]
	}
	return total
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var p params
	var secs, trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: estimate-loopback, estimate-hard or search-http")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: instance secret, Monte Carlo samples and search")
	flag.IntVar(&secs, "seconds", 10, "length of the measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: add a traced run and report the per-layer metrics")
	flag.Parse()
	p.seconds = time.Duration(secs) * time.Second
	p.trace = trace != 0
	w, ok := workloads[p.workload]
	if !ok || secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", p.workload)
		os.Exit(2)
	}
	out := newReport()
	if err := w.run(p, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.workload, err)
		os.Exit(1)
	}
	emitSetup(out.setups, out)
	out.set("peak_rss_mb", out.rss)
	out.set("success_rate", ratio(float64(out.attempted-out.failed), float64(out.attempted)))
	fmt.Printf("evaluations timed: %d\n", out.evalCount)

	defs := endToEnd
	if p.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", p.workload, p.seed))
		if err := out.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

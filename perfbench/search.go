package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// searchWorkload submits a tabu search job and then a simulated-annealing
// job, both from the full start set, to the HTTP job API and reads each
// job's NDJSON event stream through to "done".  The jobs use the default
// evaluation policy (pruning, staged sampling, F-cache) with two concurrent
// evaluations on the in-process transport.
//
// A run repeats such rounds until the window closes.  Each round opens a
// fresh session over its own instance of the family, so no job repeats a
// (method, start) pair whose F values the session's cache already holds.
// Round r uses the instance, sample and search seed instanceSeed(seed, r).
// The jobs' evaluation latency is the gap between consecutive search_visit
// events as the client receives them, in wall and in process CPU time.
type searchWorkload struct{}

const (
	searchSampleSize = 100
	searchBudget     = 16 // evaluations per job
	searchWidth      = 2  // concurrent evaluations per search
)

var searchMethods = []string{"tabu", "sa"}

func (searchWorkload) envConfig(seed int64, problem *pdsat.Problem, rec *recorder) envConfig {
	rc := pdsat.DefaultConfig().Runner
	rc.SampleSize = searchSampleSize
	rc.Seed = seed
	rc.CostMetric = pdsat.CostPropagations
	rc.Workers = solveSlots
	rc.Policy = pdsat.DefaultEvalPolicy()
	rc.Policy.MaxConcurrentEvals = searchWidth
	rc.SubproblemBudget = taskBudget
	so := pdsat.DefaultConfig().Search
	so.Seed = seed
	so.MaxEvaluations = searchBudget
	return envConfig{
		instanceSeed: seed,
		transport:    inproc,
		slots:        rc.Workers,
		runner:       rc,
		search:       so,
		http:         true,
		trace:        rec,
		problem:      problem,
	}
}

// jobRun is what the client observed of one search job.
type jobRun struct {
	method      string
	wall        time.Duration // POST sent → result received
	cpu         time.Duration // process CPU time over the same span
	submit      time.Duration // POST latency
	firstEvent  time.Duration // submit response → first event
	doneToRes   time.Duration // done event → result received
	events      int
	bytes       int
	visits      int
	pruned      int
	nbGaps      []float64 // ms between neighborhood_done arrivals
	nbEvaluated []float64
	visitGaps   []float64 // ms between search_visit arrivals
	visitCPU    []float64 // process CPU ms between search_visit arrivals
	best        float64
	bestVars    []int
	evaluations int
	span        *span
}

// roundRun is one round: its jobs and its session's counters.
type roundRun struct {
	jobs  []jobRun
	stats pdsat.SessionStats
}

// searchWindow is what one measuring window observed.
type searchWindow struct {
	rounds  []roundRun
	jobWall time.Duration
	jobCPU  time.Duration
	setups  []setupTiming
	allocs  allocCounter // of the jobs in traced windows
}

func (w searchWorkload) run(p params, out *report) error {
	// The first round's environment is set up setupReps times; later
	// rounds add their own set-ups to the sample.
	setups, first, err := repeatSetup(w.envConfig(instanceSeed(p.seed, 0), nil, nil))
	if err != nil {
		return err
	}
	win := w.window(p, first, nil, out)
	out.setups = append(setups, win.setups...)
	out.rss = peakRSSMB()
	w.emitEndToEnd(win, out)
	printRounds("", win)
	if !p.trace {
		return nil
	}

	rec := newRecorder()
	out.rec = rec
	te, err := newEnv(w.envConfig(instanceSeed(p.seed, 0), first.problem, rec))
	if err != nil {
		return err
	}
	traced := w.window(p, te, rec, out)
	printRounds("traced ", traced)
	out.check(tabuBest(traced.rounds[0]) == tabuBest(win.rounds[0]), "traced tabu best F equals the untraced one")
	w.emitTraceLayers(win, traced, rec, out)
	replayInto(rec, p.seconds, out)
	return nil
}

// window runs rounds until the measuring window closes, starting with the
// prepared environment e.
func (w searchWorkload) window(p params, e *env, rec *recorder, out *report) searchWindow {
	var win searchWindow
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < p.seconds; r++ {
		if r > 0 {
			ne, err := newEnv(w.envConfig(instanceSeed(p.seed, r), nil, rec))
			if !out.op(err, "round set-up") {
				break
			}
			e = ne
			win.setups = append(win.setups, e.timing)
		}
		var round roundRun
		for _, m := range searchMethods {
			var sp *span
			if rec != nil {
				win.allocs.start()
				sp = rec.begin("job", nil)
				rec.setParent(sp)
			}
			j, ok := runJob(client, e.baseURL, m, out)
			if rec != nil {
				rec.end(sp, nil)
				win.allocs.stop()
				j.span = sp
			}
			if !ok {
				continue
			}
			win.jobWall += j.wall
			win.jobCPU += j.cpu
			round.jobs = append(round.jobs, j)
		}
		var st pdsat.SessionStats
		if getJSON(client, e.baseURL+"/v1/stats", &st, out) {
			round.stats = st
			checkLedger(st, out)
		}
		client.CloseIdleConnections()
		e.close()
		win.rounds = append(win.rounds, round)
	}
	return win
}

// event is one NDJSON record of a job's event stream.
type event struct {
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// runJob submits one search job, reads its event stream to the end and
// fetches its result.  Each request is an operation; so are the stream's
// termination check and the job's own outcome.
func runJob(client *http.Client, base, method string, out *report) (jobRun, bool) {
	j := jobRun{method: method}
	var job stopwatch
	job.start()
	body := fmt.Sprintf(`{"kind":"search","method":%q}`, method)
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if !out.op(httpErr(resp, err, http.StatusCreated), "POST /v1/jobs") {
		return j, false
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if !out.op(err, "decode submit response") {
		return j, false
	}
	tSubmitted := time.Now()
	j.submit = tSubmitted.Sub(job.wall)

	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/events")
	if !out.op(httpErr(resp, err, http.StatusOK), "GET events") {
		return j, false
	}
	var tDone time.Time
	dones, lastDone, jobErr := 0, false, ""
	last := tSubmitted
	var lastVisit time.Time
	var lastVisitCPU time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		line := sc.Bytes()
		if j.events == 0 {
			j.firstEvent = now.Sub(tSubmitted)
			lastVisit, lastVisitCPU = now, cpuTime()
		}
		j.events++
		j.bytes += len(line) + 1
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			out.op(err, "decode event")
			continue
		}
		lastDone = ev.Event == "done"
		switch ev.Event {
		case "search_visit":
			j.visits++
			nowCPU := cpuTime()
			j.visitGaps = append(j.visitGaps, ms(now.Sub(lastVisit)))
			j.visitCPU = append(j.visitCPU, ms(nowCPU-lastVisitCPU))
			lastVisit, lastVisitCPU = now, nowCPU
		case "eval_pruned":
			j.pruned++
		case "neighborhood_done":
			var nb struct {
				Evaluated int `json:"evaluated"`
			}
			if out.op(json.Unmarshal(ev.Data, &nb), "decode neighborhood_done") {
				j.nbEvaluated = append(j.nbEvaluated, float64(nb.Evaluated))
			}
			j.nbGaps = append(j.nbGaps, ms(now.Sub(last)))
			last = now
		case "done":
			dones++
			tDone = now
			var d struct {
				Err string `json:"err"`
			}
			if out.op(json.Unmarshal(ev.Data, &d), "decode done") {
				jobErr = d.Err
			}
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	out.op(scanErr, "read event stream")
	out.check(dones == 1 && lastDone, fmt.Sprintf("event stream of %s ends in exactly one done (saw %d)", st.ID, dones))

	var status struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result struct {
			Search struct {
				BestVars    []int   `json:"best_vars"`
				BestValue   float64 `json:"best_value"`
				Evaluations int     `json:"evaluations"`
			} `json:"search"`
		} `json:"result"`
	}
	if !getJSON(client, base+"/v1/jobs/"+st.ID, &status, out) {
		return j, false
	}
	j.wall, j.cpu = job.lap()
	j.doneToRes = time.Since(tDone)
	if jobErr == "" && status.State != "done" {
		jobErr = fmt.Sprintf("state %q: %s", status.State, status.Error)
	}
	if jobErr != "" {
		out.op(fmt.Errorf("%s", jobErr), "search job "+st.ID)
		return j, false
	}
	out.op(nil, "search job "+st.ID)
	j.best = status.Result.Search.BestValue
	j.bestVars = status.Result.Search.BestVars
	j.evaluations = status.Result.Search.Evaluations
	return j, true
}

// getJSON GETs url and decodes the JSON body into v, as one operation.
func getJSON(client *http.Client, url string, v any, out *report) bool {
	resp, err := client.Get(url)
	if err = httpErr(resp, err, http.StatusOK); err == nil {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	if resp != nil {
		resp.Body.Close()
	}
	return out.op(err, "GET "+url)
}

// httpErr turns a transport error or an unexpected status into an error.
func httpErr(resp *http.Response, err error, want int) error {
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	return nil
}

func (w searchWorkload) emitEndToEnd(win searchWindow, out *report) {
	evals, solved := 0, 0
	var gaps, cpuGaps []float64
	for _, r := range win.rounds {
		solved += r.stats.SubproblemsSolved
		for _, j := range r.jobs {
			evals += j.evaluations
			gaps = append(gaps, j.visitGaps...)
			cpuGaps = append(cpuGaps, j.visitCPU...)
		}
	}
	emitRates(solved, evals, win.jobWall, win.jobCPU, gaps, cpuGaps, out)
	out.set("best_log10_f", math.Log10(tabuBest(win.rounds[0])))
}

// tabuBest is the best F of a round's tabu job.  Under the default policy
// the tabu search's best F does not depend on the order in which concurrent
// evaluations complete; the simulated annealing's does, through the wave
// members that reach the F-cache before their wave is discarded (see
// internal/optimize/scheduler.go), so only the tabu job's best F is a
// deterministic function of the seed.
func tabuBest(r roundRun) float64 {
	for _, j := range r.jobs {
		if j.method == "tabu" {
			return j.best
		}
	}
	return math.NaN()
}

func (w searchWorkload) emitTraceLayers(untraced, traced searchWindow, rec *recorder, out *report) {
	batches := rec.named("batch")
	emitClusterLayer(batches, 0, out)

	var self time.Duration
	var solved, aborted, planned, skipped, evaluations int
	var hits, misses uint64
	var jobs []jobRun
	for _, r := range traced.rounds {
		solved += r.stats.SubproblemsSolved
		aborted += r.stats.SubproblemsAborted
		planned += r.stats.SamplesPlanned
		skipped += r.stats.SamplesSkipped
		evaluations += r.stats.Evaluations
		hits += r.stats.Cache.Hits
		misses += r.stats.Cache.Misses
		jobs = append(jobs, r.jobs...)
	}
	var visits, pruned int
	var submit, first, doneToRes, events, kb, nbGaps, nbEvals []float64
	for _, j := range jobs {
		var kids []*span
		for _, b := range batches {
			if b.parent == j.span {
				kids = append(kids, b)
			}
		}
		self += j.span.dur() - unionLength(kids)
		visits += j.visits
		pruned += j.pruned
		submit = append(submit, ms(j.submit))
		first = append(first, ms(j.firstEvent))
		doneToRes = append(doneToRes, ms(j.doneToRes))
		events = append(events, float64(j.events))
		kb = append(kb, float64(j.bytes)/1024)
		nbGaps = append(nbGaps, j.nbGaps...)
		nbEvals = append(nbEvals, j.nbEvaluated...)
	}
	tasks := sumAttr(batches, "tasks")
	out.set("runner.self_us_per_task", ratio(us(self), tasks))
	out.set("runner.batches_per_eval", ratio(float64(len(batches)), float64(evaluations)))
	out.set("runner.alloc_kb_per_eval", ratio(float64(traced.allocs.bytes)/1024, float64(evaluations)))
	out.set("runner.allocs_per_eval", ratio(float64(traced.allocs.mallocs), float64(evaluations)))

	out.set("eval.pruned_share", ratio(float64(pruned), float64(visits)))
	out.set("eval.cache_hit_share", ratio(float64(hits), float64(hits+misses)))
	out.set("eval.useful_task_share", ratio(float64(solved), float64(solved+aborted)))
	out.set("eval.skipped_sample_share", ratio(float64(skipped), float64(planned)))

	out.set("optimize.neighborhoods", ratio(float64(len(nbGaps)), float64(len(jobs))))
	out.set("optimize.neighborhood_ms_p50", median(nbGaps))
	out.set("optimize.neighborhood_ms_p90", quantile(nbGaps, 0.9))
	out.set("optimize.evals_per_neighborhood", mean(nbEvals))

	out.set("pdsat.submit_ms", median(submit))
	out.set("pdsat.first_event_ms", median(first))
	out.set("pdsat.events_per_job", mean(events))
	out.set("pdsat.event_kb_per_job", mean(kb))
	out.set("pdsat.done_to_result_ms", median(doneToRes))

	// The overhead compares the two windows over the rounds both completed,
	// which ran the same jobs on the same instances.
	n := min(len(traced.rounds), len(untraced.rounds))
	overhead := 1 - ratio(solvedRate(traced.rounds[:n]), solvedRate(untraced.rounds[:n]))
	fmt.Printf("tracing overhead %.3f: %.1f subproblems per CPU second traced, %.1f untraced\n",
		overhead, solvedRate(traced.rounds), solvedRate(untraced.rounds))
	out.set("trace.subproblems_per_cpu_s", solvedRate(traced.rounds))
	out.set("trace.overhead_share", overhead)
}

// solvedRate is the subproblems solved per second of the jobs' process CPU
// time.
func solvedRate(rounds []roundRun) float64 {
	solved := 0
	var cpu time.Duration
	for _, r := range rounds {
		solved += r.stats.SubproblemsSolved
		for _, j := range r.jobs {
			cpu += j.cpu
		}
	}
	return ratio(float64(solved), cpu.Seconds())
}

// printRounds prints each job's deterministic outcome and each round's
// totals.
func printRounds(label string, win searchWindow) {
	for i, r := range win.rounds {
		for _, j := range r.jobs {
			fmt.Printf("%sround %d %s: best F %.17g over %v, %d evaluations in %v\n", label, i, j.method, j.best, j.bestVars, j.evaluations, j.wall.Round(time.Millisecond))
		}
		fmt.Printf("%sround %d: %d evaluations (%d pruned), %d subproblems solved, %d aborted, total propagations %d\n",
			label, i, r.stats.Evaluations, r.stats.PrunedEvaluations, r.stats.SubproblemsSolved, r.stats.SubproblemsAborted, r.stats.Solver.Propagations)
	}
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// The instance family every workload uses: A5/1 with a 64-bit keystream and
// the 30 trailing state bits known, which leaves a 34-variable start set.
const (
	generator    = "a5/1"
	keystreamLen = 64
	knownBits    = 30
)

// taskBudget bounds every subproblem's effort.  The family's cost
// distribution has rare subproblems a hundred times the 99th percentile;
// the bound, about twelve times the median on the 16-variable set, keeps
// such a subproblem from deciding a run's figures or its length.
var taskBudget = pdsat.Budget{MaxPropagations: 1_000_000}

// buildProblem encodes the family's instance for one secret seed.
func buildProblem(seed int64) (*pdsat.Problem, error) {
	return pdsat.FromGenerator(generator, pdsat.GeneratorConfig{
		KeystreamLen: keystreamLen,
		KnownSuffix:  knownBits,
		Seed:         seed,
	})
}

// transportKind selects where a session's subproblems run.
type transportKind int

const (
	// inproc runs them on the in-process transport's worker goroutines.
	inproc transportKind = iota
	// loopback runs them on one cluster worker connected to a cluster
	// leader over 127.0.0.1, inside this process.
	loopback
)

// envConfig describes one benchmark environment.
type envConfig struct {
	instanceSeed int64
	transport    transportKind
	// slots is the number of solving slots: in-process workers, or the
	// loopback worker's capacity.
	slots   int
	runner  pdsat.RunnerConfig
	search  pdsat.SearchOptions
	http    bool
	trace   *recorder
	problem *pdsat.Problem // reused when set, else encoded
}

// env is a ready session with its transport, optional worker and optional
// HTTP server.
type env struct {
	problem   *pdsat.Problem
	sess      *pdsat.Session
	leader    *cluster.Leader
	relay     *relay
	stopWork  context.CancelFunc
	workDone  chan error
	server    *http.Server
	serveDone chan error
	baseURL   string

	timing setupTiming
}

// setupTiming is how long one set-up took, in total and per phase.
type setupTiming struct {
	total, instance, register, warmup time.Duration
	// cluster reports that the set-up registered a cluster worker.
	cluster bool
}

// newEnv builds an environment and times its set-up phases.
func newEnv(cfg envConfig) (*env, error) {
	t0 := time.Now()
	e := &env{problem: cfg.problem}
	if e.problem == nil {
		p, err := buildProblem(cfg.instanceSeed)
		if err != nil {
			return nil, fmt.Errorf("encode instance: %w", err)
		}
		e.problem = p
	}
	e.timing.instance = time.Since(t0)

	t1 := time.Now()
	var inner cluster.AbortableTransport
	switch cfg.transport {
	case loopback:
		leader, err := cluster.Listen("127.0.0.1:0", e.problem.Formula, cluster.LeaderOptions{})
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		e.leader = leader
		addr := leader.Addr().String()
		if cfg.trace != nil {
			r, err := newRelay(addr)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("relay: %w", err)
			}
			e.relay = r
			addr = r.addr()
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.stopWork = cancel
		e.workDone = make(chan error, 1)
		go func() {
			e.workDone <- cluster.Serve(ctx, addr, cluster.WorkerOptions{Capacity: cfg.slots, Name: "bench-worker"})
		}()
		wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = leader.WaitForWorkers(wctx, 1)
		wcancel()
		if err != nil {
			e.close()
			return nil, fmt.Errorf("worker registration: %w", err)
		}
		inner = leader
	default:
		inner = cluster.NewInproc(e.problem.Formula, cfg.slots, cfg.runner.SolverOptions)
	}
	e.timing.register = time.Since(t1)
	e.timing.cluster = e.leader != nil

	t2 := time.Now()
	if err := warmUp(inner, e.problem.StartSet); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.timing.warmup = time.Since(t2)

	rc := cfg.runner
	rc.Transport = inner
	if cfg.trace != nil {
		rc.Transport = wrapTransport(inner, e.problem.Formula, cfg.trace)
	}
	sess, err := pdsat.NewSession(e.problem, pdsat.Config{Runner: rc, Search: cfg.search})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("session: %w", err)
	}
	e.sess = sess

	if cfg.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("http listen: %w", err)
		}
		e.server = &http.Server{Handler: pdsat.NewServer(sess), ReadHeaderTimeout: 10 * time.Second}
		e.serveDone = make(chan error, 1)
		go func() { e.serveDone <- e.server.Serve(ln) }()
		e.baseURL = "http://" + ln.Addr().String()
	}
	e.timing.total = time.Since(t0)
	return e, nil
}

// warmUp runs one batch with a task per slot so that every solving slot has
// built its pooled solver before timing starts.  Each task assigns the whole
// start set, which unit propagation decides at once.
func warmUp(t cluster.Transport, start []cnf.Var) error {
	assume := make([]cnf.Lit, len(start))
	for i, v := range start {
		assume[i] = cnf.NewLit(v, false)
	}
	tasks := make([]cluster.Task, t.Workers())
	for i := range tasks {
		tasks[i] = cluster.Task{Index: i, Assumptions: assume}
	}
	res, err := t.Run(context.Background(), tasks, cluster.BatchOptions{})
	if err != nil {
		return err
	}
	if len(res) != len(tasks) {
		return fmt.Errorf("warm-up returned %d results for %d tasks", len(res), len(tasks))
	}
	return nil
}

// close shuts the environment down and waits for every goroutine it
// started.
func (e *env) close() {
	if e.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.server.Shutdown(ctx) // a stuck client cannot hold the run: Close below ends it
		cancel()
		e.server.Close()
		<-e.serveDone
	}
	if e.sess != nil {
		e.sess.Close()
	}
	if e.leader != nil {
		e.leader.Close()
	}
	if e.stopWork != nil {
		e.stopWork()
		<-e.workDone
	}
	if e.relay != nil {
		e.relay.close()
	}
}

package main

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// optionalInterfaces lists which optional transport interfaces t exposes.
func optionalInterfaces(t cluster.Transport) [3]bool {
	_, observed := t.(cluster.ObservedTransport)
	_, abortable := t.(cluster.AbortableTransport)
	_, dispatch := t.(cluster.DispatchTransport)
	return [3]bool{observed, abortable, dispatch}
}

// The tracing wrapper must expose exactly the optional interfaces of the
// transport it wraps, so that the runner dispatches through the same method
// with and without tracing.
func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	problem, err := buildProblem(1)
	if err != nil {
		t.Fatal(err)
	}
	f := problem.Formula
	inproc := cluster.NewInproc(f, 1, pdsat.DefaultConfig().Runner.SolverOptions)
	leader, err := cluster.Listen("127.0.0.1:0", f, cluster.LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	cases := []struct {
		name  string
		inner cluster.AbortableTransport
		want  [3]bool
	}{
		{"inproc", inproc, [3]bool{true, true, false}},
		{"leader", leader, [3]bool{true, true, true}},
	}
	for _, c := range cases {
		if got := optionalInterfaces(c.inner); got != c.want {
			t.Fatalf("%s: inner exposes %v, test expects %v", c.name, got, c.want)
		}
		if got := optionalInterfaces(wrapTransport(c.inner, f, newRecorder())); got != c.want {
			t.Errorf("%s: wrapper exposes %v (observed, abortable, dispatch), inner %v", c.name, got, c.want)
		}
	}
}

// A traced run of an estimate workload must produce the same F values as an
// untraced run of the same seed, and its replay must reproduce every
// recorded task's cost.
func TestTracedEstimatesMatchUntraced(t *testing.T) {
	for _, name := range []string{"estimate-loopback", "estimate-hard"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name].(estimateWorkload)
			w.blockEvals = 2 // two instances in four evaluations
			const seed, evals = 3, 4
			run := func(rec *recorder) []float64 {
				out := newReport()
				e, err := newEnv(w.envConfig(seed, 0, nil, rec))
				if err != nil {
					t.Fatal(err)
				}
				vars := w.set(e.problem.StartSet)
				win := w.window(e, seed, vars, 0, evals, rec, out)
				if out.failed != 0 || len(win.fs) != evals || win.instances != 2 {
					t.Fatalf("%d of %d operations failed, %d evaluations over %d instances",
						out.failed, out.attempted, len(win.fs), win.instances)
				}
				return win.fs
			}
			plain := run(nil)
			rec := newRecorder()
			traced := run(rec)
			if !sameFloats(plain, traced) {
				t.Fatalf("traced F %v, untraced %v", traced, plain)
			}
			if len(rec.named("batch")) != evals {
				t.Errorf("recorded %d batches for %d evaluations", len(rec.named("batch")), evals)
			}
			rs := replay(pdsat.DefaultConfig().Runner.SolverOptions, rec.tasks, time.Minute, rec)
			if rs.tasks != len(rec.tasks) || rs.mismatches != 0 {
				t.Errorf("replayed %d of %d tasks with %d cost mismatches", rs.tasks, len(rec.tasks), rs.mismatches)
			}
		})
	}
}

// A traced search round must find the same tabu best F as an untraced one.
func TestTracedSearchMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two search rounds")
	}
	w := searchWorkload{}
	p := params{seed: 2}
	round := func(rec *recorder) roundRun {
		out := newReport()
		e, err := newEnv(w.envConfig(instanceSeed(p.seed, 0), nil, rec))
		if err != nil {
			t.Fatal(err)
		}
		win := w.window(p, e, rec, out)
		if out.failed != 0 {
			t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
		}
		return win.rounds[0]
	}
	plain := round(nil)
	rec := newRecorder()
	traced := round(rec)
	if a, b := tabuBest(plain), tabuBest(traced); a != b {
		t.Fatalf("tabu best F %v untraced, %v traced", a, b)
	}
	if len(rec.named("batch")) == 0 {
		t.Error("traced round recorded no batches")
	}
}

// The relay must forward bytes both ways and count them.
func TestRelayCountsBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := c.Read(buf); err == nil {
			c.Write(buf)
		}
	}()
	r, err := newRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := c.Read(buf); err != nil || string(buf) != "hello" {
		t.Fatalf("echo %q, %v", buf, err)
	}
	if n := r.bytes.Load(); n != 10 {
		t.Errorf("relay counted %d bytes, want 10", n)
	}
}

package pdsat

import (
	"context"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// TestAdaptiveDispatchBitIdenticalEstimate is the determinism gate of the
// adaptive dispatch tentpole: with work stealing, speculation and the
// variance-aware batching they activate all engaged — against a cluster
// whose first worker stalls every task it starts — a fixed-seed estimate
// must still be bit-identical to the plain in-process runner.  The cost
// model and the dispatch policies may only move subproblems between
// workers; each sample's content is a function of the scope seed and its
// slot alone.
func TestAdaptiveDispatchBitIdenticalEstimate(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	p := space.FullPoint()

	ref := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	want, err := estimate(context.Background(), ref.DefaultScope(), p)
	if err != nil {
		t.Fatal(err)
	}

	leader, err := cluster.Listen("127.0.0.1:0", inst.CNF, cluster.LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()

	// The straggler registers first, so it sits at the head of the
	// assignment order and stalls whatever it is handed; only stealing its
	// queue and speculating its running task lets the batch finish inside
	// the test deadline.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{
			Capacity: 1, Name: "straggler", Logf: t.Logf,
			TaskDelay: func(cluster.Task) time.Duration { return 2 * time.Minute },
		})
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("straggler did not register: %v", err)
	}
	go func() {
		_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{Capacity: 2, Name: "healthy", Logf: t.Logf})
	}()
	if err := leader.WaitForWorkers(waitCtx, 2); err != nil {
		t.Fatalf("healthy worker did not register: %v", err)
	}

	cfg := evalTestConfig(eval.Policy{})
	cfg.Transport = leader
	cfg.Steal = true
	cfg.Speculate = true
	r := NewRunner(inst.CNF, cfg)
	runCtx, runCancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer runCancel()
	got, err := estimate(runCtx, r.DefaultScope(), p)
	if err != nil {
		t.Fatal(err)
	}

	if got.Estimate != want.Estimate {
		t.Fatalf("estimate differs under adaptive dispatch:\n got %+v\nwant %+v", got.Estimate, want.Estimate)
	}
	gv, wv := got.Sample.Values(), want.Sample.Values()
	if len(gv) != len(wv) {
		t.Fatalf("sample sizes differ: %d vs %d", len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("sample %d differs under adaptive dispatch: %v vs %v", i, gv[i], wv[i])
		}
	}

	// The policies must actually have fired — a test where the straggler
	// never stalls anything would prove nothing — and their duplicates must
	// stay invisible to the sample accounting.
	if r.SpeculativeDuplicates() == 0 || r.SpeculationWins() == 0 {
		t.Fatalf("speculation never engaged against the straggler: stolen=%d dup=%d wins=%d",
			r.TasksStolen(), r.SpeculativeDuplicates(), r.SpeculationWins())
	}
	if got, want := r.SubproblemsSolved(), ref.SubproblemsSolved(); got != want {
		t.Fatalf("solved-subproblem count differs under speculation: %d vs %d (duplicate leaked into the ledger)", got, want)
	}
}

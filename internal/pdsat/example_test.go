package pdsat_test

import (
	"context"
	"fmt"
	"math"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// ExampleScope_Evaluate evaluates the predictive function F (eq. 5 of the
// paper) for a decomposition set of a weakened A5/1 cryptanalysis instance
// in the runner's default scope.  With a deterministic cost metric the
// estimate is reproducible: the sample depends only on the seed and the
// evaluation slot, and every subproblem is solved exactly as a fresh solver
// would solve it, even though each worker reuses one persistent solver.
func ExampleScope_Evaluate() {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40, // bits of observed keystream
		KnownSuffix:  44, // weakening: fix a suffix of the state to its true value
		Seed:         31,
	})
	if err != nil {
		panic(err)
	}
	// The search space is the set of unknown starting variables; use its
	// first 8 variables as the decomposition set X̃.
	space := decomp.NewSpace(inst.UnknownStartVars())
	point, err := space.PointFromVars(space.Vars()[:8])
	if err != nil {
		panic(err)
	}

	runner := pdsat.NewRunner(inst.CNF, pdsat.Config{
		SampleSize: 12,
		Workers:    3,
		Seed:       7,
		CostMetric: solver.CostConflicts,
	})
	est, err := runner.DefaultScope().Evaluate(context.Background(), pdsat.Request{
		Point:     point,
		Policy:    runner.Config().Policy,
		Incumbent: math.Inf(1), // no incumbent: never prune
		Slot:      -1,          // draw the next evaluation slot
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("d=%d N=%d F=%.2f conflicts\n",
		est.Estimate.Dimension, est.Estimate.SampleSize, est.Estimate.Value)
	// Output:
	// d=8 N=12 F=533.33 conflicts
}

package pdsat

import (
	"context"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
)

// TestConfigValidateRejectsNegatives checks the validation satellite:
// negative worker counts and sample sizes must surface as clear errors
// instead of being silently coerced (or panicking/hanging downstream).
func TestConfigValidateRejectsNegatives(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must be valid (defaults), got %v", err)
	}
	if err := (Config{SampleSize: -1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "sample size") {
		t.Fatalf("negative sample size must be rejected with a clear error, got %v", err)
	}
	if err := (Config{Workers: -2}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "worker count") {
		t.Fatalf("negative worker count must be rejected with a clear error, got %v", err)
	}
}

// TestNewRunnerSurfacesInvalidConfig checks that a runner built from an
// invalid configuration reports the validation error on first use.
func TestNewRunnerSurfacesInvalidConfig(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(cnf.NewLit(1, true), cnf.NewLit(2, true))
	r := NewRunner(f, Config{Workers: -1})
	p := decomp.NewSpace([]cnf.Var{1, 2}).FullPoint()
	if _, err := estimate(context.Background(), r.DefaultScope(), p); err == nil ||
		!strings.Contains(err.Error(), "worker count") {
		t.Fatalf("Evaluate must surface the config error, got %v", err)
	}
	if _, err := r.Solve(context.Background(), p, SolveOptions{}); err == nil ||
		!strings.Contains(err.Error(), "worker count") {
		t.Fatalf("Solve must surface the config error, got %v", err)
	}
}

package verify

import (
	"fmt"
	"go/token"

	"ditto/internal/analysis"
)

// This file is Layer 2: the determinism lint surface over the
// internal/analysis multi-analyzer suite. The deterministic model packages
// promise that a single seed reproduces a whole experiment; the suite
// flags the constructs that silently break that promise — wall-clock
// reads, draws from the global math/rand stream, map iteration whose order
// leaks into results, package-level state written outside init, and bare
// goroutines or channel ops racing the engine. The analyzers, the uniform
// ditto:determinism-ok suppression, and the noalloc escape-analysis gate
// all live in internal/analysis; this layer maps their findings onto the
// verify.Report schema that cmd/dittolint -json emits.

// DeterministicPackages is the default lint target set: the packages whose
// behaviour must be a pure function of their seeds. This is the full model
// surface — everything that executes inside a runner cell.
var DeterministicPackages = []string{
	"internal/app",
	"internal/app/dittofs",
	"internal/branch",
	"internal/cache",
	"internal/core",
	"internal/cpu",
	"internal/disk",
	"internal/dtrace",
	"internal/fault",
	"internal/kernel",
	"internal/loadgen",
	"internal/mem",
	"internal/netsim",
	"internal/profile",
	"internal/sim",
	"internal/stats",
	"internal/steady",
}

// NoallocPackages is the default target set of the noalloc gate: the
// deterministic packages plus the interference stressors, whose burst-fill
// loops are annotated hot paths too.
var NoallocPackages = append(append([]string(nil), DeterministicPackages...), "internal/interfere")

// Lint runs the full AST analyzer suite over the given package directories
// (relative to the module root) and returns the findings as a report.
// Packages outside the module and test files are not linted, but imports
// resolve through the module so types are exact.
func Lint(root string, pkgDirs []string) (*Report, error) {
	return LintWith(root, pkgDirs, analysis.All())
}

// LintWith runs a chosen subset of the analyzer suite.
func LintWith(root string, pkgDirs []string, analyzers []*analysis.Analyzer) (*Report, error) {
	fs, err := analysis.Run(root, pkgDirs, analyzers)
	if err != nil {
		return nil, err
	}
	return lintReport(fs), nil
}

// LintNoalloc runs the escape-analysis gate: every ditto:noalloc-annotated
// function in the given packages must stay free of compiler-placed heap
// allocations (see analysis.Noalloc).
func LintNoalloc(root string, pkgDirs []string) (*Report, error) {
	fs, err := analysis.Noalloc(root, pkgDirs)
	if err != nil {
		return nil, err
	}
	return lintReport(fs), nil
}

// lintReport maps analyzer findings onto the report schema: the analyzer
// name is the rule, every finding is an error, block/slot do not apply.
func lintReport(fs []analysis.Finding) *Report {
	r := &Report{Name: "dittolint"}
	for _, f := range fs {
		r.add(Finding{Layer: "lint", Rule: f.Analyzer, Severity: SevError,
			Block: -1, Slot: -1, Pos: posString(f.Pos), Detail: f.Message})
	}
	return r
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

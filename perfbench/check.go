package main

import (
	"fmt"
	"math"
	"reflect"

	"ditto/internal/platform"
)

// check applies the correctness invariants to a pipeline pass. They hold at
// every seed on these fault-free workloads, so no golden output is pinned.
func check(w *workload, pr *pipelineRun) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if pr.verifyErr != nil {
		fail("%v", pr.verifyErr)
	}
	bound := w.inflightBound()
	width := float64(platform.A().Arch.IssueWidth)
	for _, p := range pr.passes {
		bad = append(bad, checkRound(p.round, bound, width)...)
	}
	return bad
}

// checkRound applies the per-replay invariants to both variants of a round.
func checkRound(r round, bound int, width float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	for i, v := range variants {
		s := r.samples[i]
		switch {
		case s.TotalReceived > s.TotalSent:
			fail("%s: received %d > sent %d", v, s.TotalReceived, s.TotalSent)
		case s.TotalSent-s.TotalReceived > bound:
			fail("%s: %d requests unanswered, bound %d", v, s.TotalSent-s.TotalReceived, bound)
		}
		if s.TotalFailed != 0 {
			fail("%s: %d failed responses on a fault-free workload", v, s.TotalFailed)
		}
		if s.WinReceived == 0 || s.LatCount == 0 {
			fail("%s: no request completed in the measured window", v)
		}
		if ipc := s.Ctr.IPC(); !(ipc > 0 && ipc <= width) {
			fail("%s: IPC %v outside (0, %v]", v, ipc, width)
		}
		if !finite(s.P50Ms) || !finite(s.P99Ms) || !(s.P50Ms > 0 && s.P50Ms <= s.P99Ms) {
			fail("%s: latency percentiles p50=%v p99=%v not finite with 0 < p50 <= p99", v, s.P50Ms, s.P99Ms)
		}
	}
	return bad
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// sameSimulation reports whether a traced run's first pass simulated
// exactly what the untraced reference pass did. The detailed/modeled body
// counts exist only in traced runs and are left out.
func sameSimulation(untraced, traced *pipelineRun) error {
	a, b := untraced.passes[0].round.samples, traced.passes[0].round.samples
	for i := range b {
		b[i].Observed, b[i].Modeled = 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("traced replay differs from the untraced replay at seed %d:\n untraced %+v\n traced   %+v",
			traced.passes[0].seed, a, b)
	}
	return nil
}

package experiments

import (
	"io"
	"regexp"
	"strings"
	"testing"

	"ditto/internal/app"
	"ditto/internal/platform"
	"ditto/internal/sim"
)

// fastOptions shrinks everything for unit testing; benches use
// DefaultOptions.
func fastOptions() Options {
	return Options{
		Windows:   Windows{Warmup: 10 * sim.Millisecond, Measure: 50 * sim.Millisecond},
		TuneIters: 0,
		Seed:      3,
		Quiet:     true,
	}
}

func TestTable1(t *testing.T) {
	var sb strings.Builder
	specs := RunTable1(&sb)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	out := sb.String()
	for _, want := range []string{"table1: A", "table1: B", "table1: C", "skylake", "haswell", "SSD", "HDD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5SingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.Apps = []string{"redis"}
	res := RunFig5(io.Discard, opt)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 loads × 2 variants", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Metrics.IPC <= 0 {
			t.Fatalf("zero IPC row: %+v", r)
		}
		if r.Tput <= 0 {
			t.Fatalf("zero throughput row: %+v", r)
		}
	}
	if res.AvgErrors["ipc"] <= 0 || res.AvgErrors["ipc"] > 100 {
		t.Fatalf("ipc error = %v", res.AvgErrors["ipc"])
	}
	// Closed-loop loads: higher load should not lower throughput.
	var lowA, highA float64
	for _, r := range res.Rows {
		if r.Variant != "actual" {
			continue
		}
		switch r.Load {
		case "low":
			lowA = r.Tput
		case "high":
			highA = r.Tput
		}
	}
	if highA <= lowA {
		t.Fatalf("throughput should grow with connections: low=%v high=%v", lowA, highA)
	}
}

func TestFig6SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	res := RunFig6(io.Discard, opt, []float64{150, 400})
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Tput <= 0 || p.P99Ms <= 0 {
			t.Fatalf("bad point: %+v", p)
		}
		if p.P50Ms > p.P99Ms {
			t.Fatalf("p50 > p99: %+v", p)
		}
	}
	// Synthetic should land in the same latency regime as actual.
	for i := 0; i < len(res.Points); i += 2 {
		a, s := res.Points[i], res.Points[i+1]
		if s.P50Ms > a.P50Ms*4 || s.P50Ms < a.P50Ms/4 {
			t.Errorf("qps=%v p50 regime mismatch: actual=%v synth=%v", a.QPS, a.P50Ms, s.P50Ms)
		}
	}
}

func TestFig8SingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.Apps = []string{"nginx"}
	res := RunFig8(io.Discard, opt)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		sum := r.Retiring + r.Frontend + r.BadSpec + r.Backend
		if r.CPI <= 0 || sum <= 0.9*r.CPI || sum > 1.1*r.CPI {
			t.Fatalf("top-down does not sum to CPI: %+v (sum=%v)", r, sum)
		}
	}
}

func TestFig9Stages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.TuneIters = 1
	res := RunFig9(io.Discard, opt)
	if len(res.Rows) != 9 {
		t.Fatalf("stages = %d, want A..I", len(res.Rows))
	}
	if res.Target.IPC <= 0 {
		t.Fatal("no target")
	}
	// Stage A (skeleton only) must execute far fewer instructions per
	// request than stage C, which matches the target instruction count.
	if res.Rows[0].Instrs >= res.Rows[2].Instrs {
		t.Fatalf("stage A instrs/req %v should be < stage C %v", res.Rows[0].Instrs, res.Rows[2].Instrs)
	}
	if res.Rows[2].Instrs < res.Target.Instrs/2 || res.Rows[2].Instrs > res.Target.Instrs*2 {
		t.Fatalf("stage C instrs/req %v should approach target %v", res.Rows[2].Instrs, res.Target.Instrs)
	}
	// By stage H the clone should be in the target's IPC neighbourhood.
	h := res.Rows[7]
	if h.IPC < res.Target.IPC/3 || h.IPC > res.Target.IPC*3 {
		t.Fatalf("stage H IPC %v vs target %v", h.IPC, res.Target.IPC)
	}
}

func TestFig10Scenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	res := RunFig10(io.Discard, opt)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 6 scenarios × 2", len(res.Rows))
	}
	byKey := map[string]Fig10Row{}
	for _, r := range res.Rows {
		byKey[r.Scenario+"/"+r.Variant] = r
	}
	// HT interference must cost IPC for both variants.
	if byKey["HT/actual"].IPC >= byKey["orig/actual"].IPC {
		t.Errorf("HT should lower actual IPC: %+v vs %+v", byKey["HT/actual"], byKey["orig/actual"])
	}
	if byKey["HT/synthetic"].IPC >= byKey["orig/synthetic"].IPC {
		t.Errorf("HT should lower synthetic IPC")
	}
	// L1d stressor raises L1d miss rate.
	if byKey["L1d/actual"].L1dMiss <= byKey["orig/actual"].L1dMiss {
		t.Errorf("L1d stressor should raise actual L1d misses")
	}
	if byKey["L1d/synthetic"].L1dMiss <= byKey["orig/synthetic"].L1dMiss {
		t.Errorf("L1d stressor should raise synthetic L1d misses")
	}
	// Network contention must raise p99 for both.
	if byKey["Net/actual"].P99Ms <= byKey["orig/actual"].P99Ms {
		t.Errorf("net stressor should raise actual p99")
	}
	if byKey["Net/synthetic"].P99Ms <= byKey["orig/synthetic"].P99Ms {
		t.Errorf("net stressor should raise synthetic p99")
	}
}

func TestFig11SmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	res := RunFig11(io.Discard, opt, []int{4, 16}, []float64{1.1, 2.1})
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	find := func(cores int, f float64, variant string) Fig11Cell {
		for _, c := range res.Cells {
			if c.Cores == cores && c.FreqGHz == f && c.Variant == variant {
				return c
			}
		}
		t.Fatalf("cell missing")
		return Fig11Cell{}
	}
	for _, variant := range []string{"actual", "synthetic"} {
		worst := find(4, 1.1, variant)
		best := find(16, 2.1, variant)
		if best.P99Ms >= worst.P99Ms {
			t.Errorf("%s: best config %vms should beat worst %vms", variant, best.P99Ms, worst.P99Ms)
		}
	}
}

func TestFig7SingleAppAcrossPlatforms(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.Apps = []string{"mongodb"}
	res := RunFig7(io.Discard, opt)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 platforms × 2", len(res.Rows))
	}
	get := func(plat, variant string) Fig7Row {
		for _, r := range res.Rows {
			if r.Platform == plat && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("row missing: %s %s", plat, variant)
		return Fig7Row{}
	}
	// MongoDB latency is far lower on SSD Platform A than HDD B/C for both
	// variants — the Fig. 7 observation.
	for _, variant := range []string{"actual", "synthetic"} {
		a, b := get("A", variant), get("B", variant)
		if a.AvgMs >= b.AvgMs {
			t.Errorf("%s: SSD platform A (%vms) should beat HDD B (%vms)", variant, a.AvgMs, b.AvgMs)
		}
	}
	_ = platform.A
}

// TestFig7SocialTierLatency checks that the Social Network rows of Fig. 7
// carry the per-tier span latencies MeasureSN returns.
func TestFig7SocialTierLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.IncludeSocial = true
	opt.CellFilter = regexp.MustCompile(`^fig7/social/C/`)
	res := RunFig7(io.Discard, opt)
	if len(res.Rows) != 2*len(fig5SocialTiers) {
		t.Fatalf("rows = %d, want 2 variants × %d tiers", len(res.Rows), len(fig5SocialTiers))
	}
	for _, r := range res.Rows {
		if r.AvgMs <= 0 || r.P99Ms <= 0 {
			t.Errorf("%s %s %s: avg=%v p99=%v, want both > 0", r.App, r.Platform, r.Variant, r.AvgMs, r.P99Ms)
		}
	}
}

// TestMeasureSNTierThroughput checks that MeasureSN reports each traced
// tier's request rate over the measurement window, so per-request
// quantities such as Fig. 5's network bytes per request have a denominator.
func TestMeasureSNTierThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	d := NewOriginalSN(platform.A(), 2, 8, opt.Seed, 1)
	e2e, per := MeasureSN(d, Load{QPS: 400, Conns: 12, Mix: SNMix(), Seed: opt.Seed}, socialWindows(opt.Windows), fig5SocialTiers)
	d.Env.Shutdown()
	if e2e.Throughput <= 0 {
		t.Fatalf("end-to-end throughput = %v", e2e.Throughput)
	}
	for _, tn := range fig5SocialTiers {
		r, ok := per[tn]
		if !ok || r.Throughput <= 0 {
			t.Errorf("%s: throughput = %v, want > 0", tn, r.Throughput)
		}
	}
}

func TestPhaseScanNoRegularPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline run; skipped in -short")
	}
	opt := fastOptions()
	opt.Windows.Measure = 80 * sim.Millisecond
	build := func(m *platform.Machine) app.App { return app.NewRedis(m, 6379, 13) }
	scan := RunPhaseScan(io.Discard, opt, build, Load{Conns: 8, Seed: 13}, 8)
	if len(scan.Samples) != 8 {
		t.Fatalf("samples = %d", len(scan.Samples))
	}
	if scan.Mean <= 0 {
		t.Fatal("no IPC measured")
	}
	// §7.3: steady-state cloud services show no regular program phases; the
	// IPC time series should be tight around its mean.
	if scan.CoV > 0.25 {
		t.Fatalf("IPC CoV = %v, unexpectedly phase-y", scan.CoV)
	}
}

// Command perfbench is the repository's benchmark. It runs Ditto's whole
// pipeline on one workload — profile the original, generate the clone,
// deploy and replay original and clone under held-out load — checks the
// outputs against invariants that hold at every seed, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload redis --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced reference pass and a traced pass and prints the per-layer
// metrics, the traced pass's host-time split by module and the tracing
// overhead, and writes the spans to .bench_out/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: redis, socialnet or dittofs")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 25, "host seconds a run spends making passes, at least")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*workload)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	host := map[string]any{"workload": w.name, "seed": *seed, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "shard_width": shardWidth, "go": runtime.Version(),
		"fidelity_reference": "the simulated original; the model is unvalidated against hardware"}
	hb, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hb))

	res, problems := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. A panic anywhere in the pipeline counts
// as a fully failed run.
func run(w *workload, seed int64, budget time.Duration, traced bool) (res result, problems []string) {
	res.Attempted = 1
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("panic: %v", r))
		}
		res.Correct = len(problems) == 0
		if !res.Correct {
			res.Failed = res.Attempted
		}
	}()
	if !traced {
		pr, err := runPipeline(w, &options{seed: seed, size: full, budget: budget})
		if err != nil {
			return res, []string{err.Error()}
		}
		res.Attempted, res.Failed = accounting(w, pr)
		res.Metrics = endToEnd(pr)
		return res, check(w, pr)
	}

	// The traced run starts with an untraced reference pass; its first
	// traced pass must simulate exactly the same.
	ref, err := runPipeline(w, &options{seed: seed, size: full, passes: 1})
	if err != nil {
		return res, []string{err.Error()}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o := &options{seed: seed, size: full, passes: 1, budget: budget,
		sp: newSpans(fmt.Sprintf("%s-seed%d", w.name, seed)), prof: &profiler{}}
	pr, err := runPipeline(w, o)
	if err != nil {
		return res, []string{err.Error()}
	}
	runtime.ReadMemStats(&m1)
	res.Attempted, res.Failed = accounting(w, pr)
	problems = check(w, pr)
	if err := sameSimulation(ref, pr); err != nil {
		problems = append(problems, err.Error())
	}
	res.Metrics = perLayer(pr, o.prof)
	// Both first passes made the same clone and replay; only tracing
	// differs.
	tracedS, untracedS := passWallS(pr.passes[0]), passWallS(ref.passes[0])
	overhead := tracedS - untracedS
	res.Metrics["trace.overhead_s"] = metric{overhead, "s"}
	res.Metrics["go.alloc_mb"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, "MB"}
	res.Metrics["go.gc_count"] = metric{float64(m1.NumGC - m0.NumGC), "count"}

	path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := o.sp.write(path); err != nil {
		problems = append(problems, err.Error())
	}
	printLayers(o.prof)
	fmt.Printf("spans: %d written to %s\n", len(o.sp.list), path)
	fmt.Printf("tracing overhead: first pass traced %.3f s - untraced %.3f s = %.3f s\n", tracedS, untracedS, overhead)
	return res, problems
}

// accounting counts requests sent in measured windows and those that
// failed: failed responses plus requests left unanswered beyond the
// workload's in-flight bound.
func accounting(w *workload, pr *pipelineRun) (attempted, failed int) {
	bound := w.inflightBound()
	for _, p := range pr.passes {
		for _, s := range p.round.samples {
			attempted += s.WinSent
			failed += s.WinFailed
			if lost := s.TotalSent - s.TotalReceived - bound; lost > 0 {
				failed += lost
			}
		}
	}
	return max(attempted, 1), failed
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound is the median of f over every pass's replay round.
func perRound(pr *pipelineRun, f func(round) float64) float64 {
	var xs []float64
	for _, p := range pr.passes {
		xs = append(xs, f(p.round))
	}
	return median(xs)
}

// cloneS is the median host time of the run's clones.
func cloneS(pr *pipelineRun) float64 {
	var xs []float64
	for _, p := range pr.passes {
		xs = append(xs, p.cloneS)
	}
	return median(xs)
}

// wallS is the host cost of one clone-and-replay pass: the median clone
// plus the median replay round (setup, measured windows and teardown of
// both variants).
func wallS(pr *pipelineRun) float64 { return cloneS(pr) + perRound(pr, round.total) }

// passWallS is the host cost of one pass: its clone plus its replay.
func passWallS(p pass) float64 { return p.cloneS + p.round.total() }

// matchPct scores how closely the clone reproduces the original on one
// metric: 100 × min/max of the two values, so 100 is a perfect clone and
// the score falls as the clone's error grows in either direction. For
// small errors it is 100 minus the error in percent. The check guarantees
// both values are positive.
func matchPct(clone, orig float64) float64 {
	return math.Min(clone, orig) / math.Max(clone, orig) * 100
}

// match is the mean of matchPct on one statistic over the run's fixed
// passes.
func match(pr *pipelineRun, stat func(sample) float64) float64 {
	var sum float64
	for _, p := range pr.passes[:pr.fidelity] {
		sum += matchPct(stat(p.round.samples[1]), stat(p.round.samples[0]))
	}
	return sum / float64(pr.fidelity)
}

func endToEnd(pr *pipelineRun) map[string]metric {
	return map[string]metric{
		"setup_s": {perRound(pr, round.setup), "s"},
		"clone_s": {cloneS(pr), "s"},
		"wall_s":  {wallS(pr), "s"},
		"replay_req_per_s": {perRound(pr, func(r round) float64 {
			return float64(r.samples[0].WinReceived+r.samples[1].WinReceived) / r.measure()
		}), "1/s"},
		"replay_mips": {perRound(pr, func(r round) float64 {
			return float64(r.samples[0].Ctr.Instrs+r.samples[1].Ctr.Instrs) / r.measure() / 1e6
		}), "MIPS"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
		"ipc_match_pct":  {match(pr, func(s sample) float64 { return s.Ctr.IPC() }), "%"},
		"p50_match_pct":  {match(pr, func(s sample) float64 { return s.P50Ms }), "%"},
		"p99_match_pct":  {match(pr, func(s sample) float64 { return s.P99Ms }), "%"},
		"tput_match_pct": {match(pr, sample.throughput), "%"},
	}
}

// perLayer reports the traced run's layer metrics: host-time shares per
// phase and module, and the simulated counts of its first pass's replay.
func perLayer(pr *pipelineRun, prof *profiler) map[string]metric {
	m := map[string]metric{}
	for _, phase := range []string{"clone", "replay"} {
		sh := prof.shares(phase)
		for _, mod := range modules {
			m[phase+"."+mod+"_pct"] = metric{sh[mod], "%"}
		}
	}
	p := pr.passes[0]
	var sent, failed int
	for i, v := range variants {
		s := p.round.samples[i]
		c := s.Ctr
		kilo := float64(c.Instrs) / 1000
		instrs := float64(c.Instrs)
		add := func(name string, value float64, unit string) { m[name+"."+v] = metric{value, unit} }
		add("cache.l1i_mpki", float64(c.L1iMiss)/kilo, "1/kinstr")
		add("cache.l1d_mpki", float64(c.L1dMiss)/kilo, "1/kinstr")
		add("cache.l2_mpki", float64(c.L2Miss)/kilo, "1/kinstr")
		add("cache.l3_mpki", float64(c.L3Miss)/kilo, "1/kinstr")
		add("cpu.instrs", instrs, "count")
		add("cpu.ipc", c.IPC(), "instr/cycle")
		add("cpu.kernel_share_pct", c.KernelShare()*100, "%")
		add("cpu.cpi_retiring", c.Retiring/instrs, "cycle/instr")
		add("cpu.cpi_frontend", c.Frontend/instrs, "cycle/instr")
		add("cpu.cpi_badspec", c.BadSpec/instrs, "cycle/instr")
		add("cpu.cpi_backend", c.Backend/instrs, "cycle/instr")
		add("branch.mpki", float64(c.Mispred)/kilo, "1/kinstr")
		add("kernel.pc_hit_pct", ratioPct(s.PCHits, s.PCHits+s.PCMiss), "%")
		add("kernel.fsyncs", float64(s.Fsyncs), "count")
		add("kernel.fsync_p99_ms", s.FsyncP99Ms, "ms")
		add("disk.read_mb", float64(s.DiskRead)/1e6, "MB")
		add("disk.write_mb", float64(s.DiskWrite)/1e6, "MB")
		add("disk.busy_pct", s.DiskBusy.Seconds()/s.SimSeconds/float64(s.Machines)*100, "%")
		add("netsim.mb", float64(s.NetBytes)/1e6, "MB")
		add("sim.events", float64(s.Events), "count")
		add("dtrace.spans", float64(s.Spans), "count")
		add("steady.modeled_pct", ratioPct(s.Modeled, s.Observed+s.Modeled), "%")
		add("steady.warmup_sim_ms", s.WarmupSimMs, "ms")
		add("loadgen.sent", float64(s.WinSent), "count")
		add("loadgen.received", float64(s.WinReceived), "count")
		add("loadgen.failed", float64(s.WinFailed), "count")
		sent += s.WinSent
		failed += s.WinFailed
	}
	m["sim.host_ns_per_event"] = metric{perRound(pr, func(r round) float64 {
		return r.measure() * 1e9 / float64(r.samples[0].Events+r.samples[1].Events)
	}), "ns"}
	m["profile.s"] = metric{p.cloneS - p.generateS - p.art.tuneS, "s"}
	m["core.generate_s"] = metric{p.generateS, "s"}
	m["core.finetune_s"] = metric{p.art.tuneS, "s"}
	m["fail_pct"] = metric{ratioPct(uint64(failed), uint64(sent)), "%"}
	return m
}

func ratioPct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

// maxRSSMB reads the process's peak resident memory (VmHWM).
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// printLayers prints each phase's host-time split by module, largest first.
func printLayers(prof *profiler) {
	for _, phase := range []string{"clone", "replay"} {
		sh := prof.shares(phase)
		type kv struct {
			mod string
			pct float64
		}
		var rows []kv
		for _, mod := range modules {
			if p := sh[mod]; p > 0 {
				rows = append(rows, kv{mod, p})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].pct > rows[j].pct })
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, " %s=%.1f%%", r.mod, r.pct)
		}
		fmt.Printf("host time by module, %s phase:%s\n", phase, b.String())
	}
}

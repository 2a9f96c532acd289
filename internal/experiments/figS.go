package experiments

import (
	"io"

	"ditto/internal/app"
	"ditto/internal/app/dittofs"
	"ditto/internal/dtrace"
	"ditto/internal/loadgen"
	"ditto/internal/platform"
	"ditto/internal/runner"
)

// FigSPoint is one (backend, variant) measurement of the storage-family
// experiment: latency percentiles plus the storage-side signals — device
// bandwidth, page-cache hit rate, and fsync latency on the commit path —
// original versus clone.
type FigSPoint struct {
	Backend string
	Variant string
	P50Ms   float64
	P95Ms   float64
	P99Ms   float64

	Throughput  float64 // completed requests per second
	DiskReadBW  float64 // server-side device read bytes/s (all server machines)
	DiskWriteBW float64 // server-side device write bytes/s (all server machines)
	PCHitRate   float64 // kernel page-cache hit rate over the measure window
	FsyncMeanMs float64 // adapter-machine fsync latency (WAL commit path)
	FsyncP99Ms  float64
	FsyncRate   float64 // fsyncs per second across server machines
}

// FigSResult is the storage-backend fidelity series.
type FigSResult struct {
	Points []FigSPoint
}

// fsBackends orders the content backends of the DittoFS family.
var fsBackends = []string{"mem", "lsm", "blob"}

// fsSpec is the storage experiment's server platform: Platform A with the
// page cache shrunk far below the dataset, so content reads contend for
// pages and eviction writeback is live during the measurement.
func fsSpec() platform.Spec {
	spec := platform.A()
	spec.PageCacheMB = 64
	return spec
}

// fsLoad shapes the NFS-style load: closed loop by default (qps <= 0), so
// per-backend service time sets the pace, or an open loop at the given rate.
func fsLoad(qps float64, seed int64) Load {
	return Load{QPS: qps, Conns: 12, Mix: loadgen.FSMix(), Seed: seed}
}

// FSEnv is a deployed DittoFS, original or synthetic. Machines lists the
// server-side machines (adapter first, blob tier second when present) so
// storage-side counters can be aggregated over exactly the machines that
// serve requests. It is an alias of Deployment, kept because the benchmark
// under perfbench/ names it.
type FSEnv = Deployment

// fsClient names the DittoFS load generator.
const fsClient = "fs-client"

// NewOriginalFS deploys the original DittoFS with the given content backend:
// the adapter on the environment's server machine and, for the blob backend,
// the blob-store tier on its own machine (remote disk attribution). Its
// tiers are the adapter and, for blob, the blob store, in that order. intra
// is the intra-cell parallelism, as in NewOriginalSN.
func NewOriginalFS(backend string, spec platform.Spec, seed int64, intra int) *FSEnv {
	env, machines := newCluster(intra, spec, 8)
	var blobM *platform.Machine
	if backend == "blob" {
		blobM = env.AddMachine("blob", spec, platform.WithCoreCount(8))
		machines = append(machines, blobM)
	}
	svc := dittofs.NewService(env.Server, blobM, 9300, dittofs.DefaultConfig(backend), seed)
	collector := dtrace.NewCollector(1)
	svc.Adapter.Collector = collector
	order := []string{dittofs.AdapterName}
	tiers := map[string]*app.Tier{dittofs.AdapterName: svc.Adapter}
	if svc.Blob != nil {
		svc.Blob.Collector = collector
		order = append(order, dittofs.BlobName)
		tiers[dittofs.BlobName] = svc.Blob
	}
	svc.Start()
	return &FSEnv{Env: env, Machines: machines, Frontend: env.Server, Port: 9300,
		Tiers: tiers, Order: order, Collector: collector, client: fsClient}
}

// MeasureFS drives the deployment with the FS mix and returns the
// storage-side fidelity point measured over the post-warmup window.
func MeasureFS(d *FSEnv, load Load, win Windows) FigSPoint {
	type kcSnap struct {
		read, write  uint64
		hits, misses uint64
		fsyncs       uint64
	}
	before := make([]kcSnap, len(d.Machines))
	g, _, dur := d.measure(load, win, func() {
		for i, m := range d.Machines {
			c := m.Disk.Counters()
			h, ms := m.Kernel.PageCacheStats()
			before[i] = kcSnap{read: c.ReadBytes, write: c.WriteBytes,
				hits: h, misses: ms, fsyncs: m.Kernel.Fsyncs()}
			// Fsync latency is measured over the window only: reset the
			// recorder at the warmup edge.
			m.Kernel.FsyncLatency().Reset()
		}
	})

	lat := g.Latency()
	pt := FigSPoint{
		P50Ms:      lat.Percentile(50),
		P95Ms:      lat.Percentile(95),
		P99Ms:      lat.Percentile(99),
		Throughput: float64(g.Received()) / dur,
	}
	var read, write, hits, misses, fsyncs uint64
	for i, m := range d.Machines {
		c := m.Disk.Counters()
		h, ms := m.Kernel.PageCacheStats()
		read += c.ReadBytes - before[i].read
		write += c.WriteBytes - before[i].write
		hits += h - before[i].hits
		misses += ms - before[i].misses
		fsyncs += m.Kernel.Fsyncs() - before[i].fsyncs
	}
	pt.DiskReadBW = float64(read) / dur
	pt.DiskWriteBW = float64(write) / dur
	if hits+misses > 0 {
		pt.PCHitRate = float64(hits) / float64(hits+misses)
	}
	pt.FsyncRate = float64(fsyncs) / dur
	// The WAL commit path fsyncs on the adapter machine — Machines[0] in
	// both deployments.
	fl := d.Machines[0].Kernel.FsyncLatency()
	pt.FsyncMeanMs = fl.Mean()
	pt.FsyncP99Ms = fl.Percentile(99)
	return pt
}

// CloneFS profiles a running original DittoFS deployment under load and
// generates the synthetic specs for every tier — the §4 pipeline applied to
// the storage family (see clone). The learned topology carries the
// adapter→blob edge for the blob backend; the profiled syscall plans carry
// the WAL appends, fsyncs, and content-store traffic. The profiling run uses
// one shard worker.
func CloneFS(backend string, spec platform.Spec, load Load, win Windows, seed int64) *SNClone {
	return clone(NewOriginalFS(backend, spec, seed, 1), dittofs.AdapterName, load, win, seed)
}

// NewSynthFS deploys the synthetic DittoFS from a clone (see deploySynth):
// the adapter stand-in on the server machine and, when the clone has a blob
// tier, its stand-in on a second machine — the same placement as the
// original, with tiers keyed by the original tier names.
func NewSynthFS(clone *SNClone, spec platform.Spec, seed int64, intra int) *FSEnv {
	env, machines := newCluster(intra, spec, 8)
	if len(clone.Order) > 1 {
		machines = append(machines, env.AddMachine("sblob", spec, platform.WithCoreCount(8)))
	}
	return deploySynth(env, machines, clone, seed, fsClient)
}

// RunFigS measures clone fidelity for the storage-bound family: each DittoFS
// content backend (mem, lsm, blob) is profiled, cloned, and then original
// and clone are measured under the same NFS-style mix, comparing latency
// percentiles, device bandwidth, page-cache hit rate, and WAL-path fsync
// latency. One prep cell per backend builds the clone; each (backend,
// variant) point is an independent cell, so the report is byte-identical at
// any -parallel width. qps <= 0 runs the closed loop (the default).
func RunFigS(w io.Writer, opt Options, qps float64) FigSResult {
	if opt.Windows.Measure == 0 {
		opt.Windows = DefaultWindows()
	}

	p := runner.NewPlan()
	clones := make([]*SNClone, len(fsBackends))
	for i, b := range fsBackends {
		i, b := i, b
		p.AddPrep(runner.Key("figS", b, "clone"), func(io.Writer) (any, error) {
			clones[i] = CloneFS(b, fsSpec(), fsLoad(qps, opt.Seed), opt.Windows, opt.Seed+17)
			return nil, nil
		})
	}
	p.Barrier()
	runner.Grid2(p, fsBackends, fig5Variants,
		func(b, v string) string { return runner.Key("figS", b, v) },
		func(b, v string, cw io.Writer) (any, error) {
			var d *FSEnv
			if v == "actual" {
				d = NewOriginalFS(b, fsSpec(), opt.Seed+17, opt.IntraParallel)
			} else {
				var clone *SNClone
				for i := range fsBackends {
					if fsBackends[i] == b {
						clone = clones[i]
					}
				}
				d = NewSynthFS(clone, fsSpec(), opt.Seed+18, opt.IntraParallel)
			}
			pt := MeasureFS(d, fsLoad(qps, opt.Seed), opt.Windows)
			pt.Backend, pt.Variant = b, v
			d.Env.Shutdown()
			if !opt.Quiet {
				row(cw, "figS: %-4s %-9s p50=%.3f p95=%.3f p99=%.3f thr=%.0f diskR=%.2fMB/s diskW=%.2fMB/s pc-hit=%.3f fsync=%.4f/%.4fms rate=%.0f/s",
					pt.Backend, pt.Variant, pt.P50Ms, pt.P95Ms, pt.P99Ms,
					pt.Throughput, pt.DiskReadBW/1e6, pt.DiskWriteBW/1e6,
					pt.PCHitRate, pt.FsyncMeanMs, pt.FsyncP99Ms, pt.FsyncRate)
			}
			return pt, nil
		})

	var res FigSResult
	results := runPlan(w, p, opt, "figS: backend variant p50 p95 p99 thr diskR diskW pc-hit fsync-mean/p99 fsync-rate")
	if results == nil {
		return res
	}
	for _, r := range results {
		if pt, ok := r.Value.(FigSPoint); ok {
			res.Points = append(res.Points, pt)
		}
	}
	return res
}

// Command ledgerbench is espsim's end-to-end benchmark and per-layer
// ledger. One process builds the fleet in-process (GOMAXPROCS at most
// 2, at most 2 client connections), drives one named workload over
// loopback HTTP for --seconds, verifies every simulated result, and
// prints one JSON line of metrics. With --trace 1 it instead splits the
// time between an untraced and a traced phase, records spans around the
// benchmark's own calls into each layer, writes them under
// .bench_build/spans, and reports the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash ledgerbench/run.sh --workload fig9-sweep|run-open \
//	    --seed N --seconds S --trace 0|1
//
// See ledgerbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"espsim/internal/serve"
)

// A run builds its fleet at least minSetups times, and more while the
// set-ups so far took under setupBudget, up to maxSetups; setup_s is the
// median. Cheap set-ups are repeated more, so their median is steady.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a client of the fleet sees, reported on
// every workload with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"esp_over_nls_pct", "%"},
}

// perLayer are the traced run's metrics, reported on every workload
// with --trace 1.
var perLayer = []metricSpec{
	{"http.self_us", "us"},
	{"cluster.self_ms", "ms"},
	{"cluster.shard_imbalance", "ratio"},
	{"cluster.steals", "count"},
	{"serve.self_us", "us"},
	{"serve.parse_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.refused", "count"},
	{"tenantq.acquire_us", "us"},
	{"fault.exec_us", "us"},
	{"checkpoint.append_us", "us"},
	{"sim.replay_ms", "ms"},
	{"sim.replay_mips", "Minst/s"},
	{"sim.reset_us", "us"},
	{"sim.result_us", "us"},
	{"sim.cache_hits", "count"},
	{"sim.cache_builds", "count"},
	{"sim.cache_evicts", "count"},
	{"sim.machine_build_us", "us"},
	{"sim.workload_build_ms", "ms"},
	{"sim.workload_mb", "MB"},
	{"mem.fetchi_ns", "ns"},
	{"mem.accessd_ns", "ns"},
	{"branch.predict_ns", "ns"},
	{"prefetch.nli_ns", "ns"},
	{"prefetch.dcu_ns", "ns"},
	{"prefetch.stride_ns", "ns"},
	{"core.esp_extra_ms", "ms"},
	{"runahead.extra_ms", "ms"},
	{"mem.l1i_mpki", "mpki"},
	{"mem.l1d_miss_pct", "%"},
	{"mem.prefetch_useful_pct", "%"},
	{"branch.mispredict_pct", "%"},
	{"cpu.imiss_pct", "%"},
	{"cpu.dmiss_pct", "%"},
	{"cpu.branch_pct", "%"},
	{"core.preexec_pct", "%"},
	{"core.consumed_pct", "%"},
	{"workload.gen_ns_per_inst", "ns"},
	{"eventq.schedule_ms", "ms"},
	{"trace.decode_ms_per_mb", "ms/MB"},
	{"bench.gen_late_ms", "ms"},
	{"bench.backlog", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_ms", "ms"},
}

// workloadNames are the workloads newBench builds.
var workloadNames = []string{"fig9-sweep", "run-open"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	var digests, golden string
	flag.StringVar(&o.workload, "workload", "", strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&digests, "write-digests", "", "recompute the digest table into this file and exit")
	flag.StringVar(&golden, "golden", "testdata/golden.json", "golden corpus -write-digests must reproduce first")
	flag.Parse()
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if digests != "" {
		if err := writeDigests(digests, golden); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "ledgerbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// liveHeapMB is the live heap after forced collections; the second one
// also drops what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func run(o options) (result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	v, err := loadVerifier()
	if err != nil {
		return result{}, err
	}
	b, err := newBench(o.workload, o.seed, v) // input generation: not set-up
	if err != nil {
		return result{}, err
	}

	heap0 := liveHeapMB()
	var setups []float64
	var f *fleet
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		if f != nil {
			f.close()
		}
		start := time.Now()
		if f, err = b.setup(scratch); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
	}
	defer f.close()
	sort.Float64s(setups)
	runtime.GC() // measure from a heap without the earlier fleets' garbage

	logf("%s seed %d: set-up median %.3fs of %d (min %.3f, max %.3f)", o.workload, o.seed, median(setups), len(setups), setups[0], setups[len(setups)-1])
	if o.trace {
		return tracedRun(o, b, f, scratch)
	}

	var ph phase
	ph.root = -1
	if err := drivePhase(b, f, time.Duration(o.seconds)*time.Second, &ph, o.workload); err != nil {
		return result{}, err
	}
	heap := liveHeapMB() - heap0
	lat := sortedMs(ph.lat)
	p, t := tail(lat)
	esp := espOverNLS(b.espPairs())
	logf("esp_over_nls_pct %.4f (paper 16, EXPERIMENTS.md 9.1 on fig9-sweep); heap_live_mb %.1f; tail is p%.1f", esp, heap, p)
	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: metricsOf(endToEnd, map[string]float64{
			"setup_s":          median(setups),
			"latency_p50_ms":   median(lat),
			"latency_tail_ms":  t,
			"heap_live_mb":     heap,
			"esp_over_nls_pct": esp,
		}),
	}, nil
}

// tracedRun spends half of the run untraced and half traced, then
// derives the per-layer metrics from the spans and the layer probes.
func tracedRun(o options, b bench, f *fleet, scratch string) (result, error) {
	d := time.Duration(o.seconds) * time.Second
	var plain, traced phase
	plain.root = -1
	if err := drivePhase(b, f, d/2, &plain, o.workload); err != nil {
		return result{}, err
	}
	tr := newTracer()
	f.tr.Store(tr)
	perf0 := f.perf()
	steals0 := coordSteals(f)
	refused0, err := f.refused()
	if err != nil {
		return result{}, err
	}
	traced.root = tr.begin("phase", "", -1, 0)
	err = drivePhase(b, f, d/2, &traced, o.workload)
	tr.end(traced.root)
	f.tr.Store(nil)
	if err != nil {
		return result{}, err
	}
	perf1 := f.perf()
	refused1, err := f.refused()
	if err != nil {
		return result{}, err
	}
	spans := tr.snapshot()
	if err := os.MkdirAll(".bench_build/spans", 0o755); err != nil {
		return result{}, err
	}
	spanPath := filepath.Join(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, err
	}

	m := map[string]float64{}
	self := selfTimes(spans)
	m["http.self_us"] = meanSelf(spans, self, "request") / 1e3
	m["serve.self_us"] = meanSelf(spans, self, "serve") / 1e3
	ps := b.probes()
	if f.coord != nil {
		m["cluster.self_ms"], m["cluster.shard_imbalance"] = clusterStats(spans, self)
		m["cluster.steals"] = float64(coordSteals(f) - steals0)
	} else if err := clusterProbe(*ps.grid, scratch, m); err != nil {
		return result{}, err
	}
	ops := float64(len(traced.lat))
	led := ledger(spans, traced.root)
	m["bench.unattributed_ms"] = led["unattributed"] / 1e6 / ops
	reportLedger(o.workload, spans, led, perf1.SimWall-perf0.SimWall, perf1.BuildWall-perf0.BuildWall, ops)
	logf("spans written to %s", spanPath)

	cells := float64(perf1.Cells - perf0.Cells)
	simWall := perf1.SimWall - perf0.SimWall
	m["sim.replay_ms"] = ms(simWall) / cells
	m["sim.replay_mips"] = float64(traced.sim.insts) / simWall.Seconds() / 1e6
	m["sim.cache_hits"] = float64(perf1.WorkloadReuses - perf0.WorkloadReuses)
	m["sim.cache_builds"] = float64(perf1.WorkloadBuilds - perf0.WorkloadBuilds)
	m["sim.cache_evicts"] = float64(perf1.WorkloadEvicts - perf0.WorkloadEvicts)
	m["serve.refused"] = float64(refused1 - refused0)
	simulatedCounts(traced.sim, m)
	_, m["bench.gen_late_ms"] = tail(sortedMs(traced.late))
	m["bench.backlog"] = float64(traced.backlog)
	base := median(sortedMs(plain.lat))
	m["bench.trace_overhead_pct"] = (median(sortedMs(traced.lat)) - base) / base * 100
	f.close() // the probes build their own planes; free the fleet's first
	if err := layerProbes(ps, scratch, m); err != nil {
		return result{}, err
	}
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   metricsOf(perLayer, m),
	}, nil
}

// drivePhase runs one measured phase, reports it, and rejects an open
// loop whose generator fell behind its schedule.
func drivePhase(b bench, f *fleet, d time.Duration, ph *phase, name string) error {
	start := time.Now()
	b.drive(f, d, ph)
	wall := time.Since(start)
	if len(ph.lat) == 0 {
		return fmt.Errorf("%s: no operation completed (first failure: %v)", name, ph.firstErr)
	}
	lat := sortedMs(ph.lat)
	p, t := tail(lat)
	lates := sortedMs(ph.late)
	_, late := tail(lates)
	overdue := len(lates) - sort.SearchFloat64s(lates, overdueMs)
	logf("phase: %d ops in %.2fs (%.1f/s), %d failed; latency p50 %.3f ms, p%.1f %.3f ms, max %.3f ms; generator late p-tail %.3f ms, %d sent over %d ms late, backlog %d",
		ph.attempted, wall.Seconds(), float64(ph.attempted)/wall.Seconds(), ph.failed, median(lat), p, t, lat[len(lat)-1], late, overdue, overdueMs, ph.backlog)
	if ph.firstErr != nil {
		logf("first failure: %v", ph.firstErr)
	}
	if name == "run-open" && (overdue > ph.attempted/10 || ph.backlog > ph.attempted/50) {
		return fmt.Errorf("run-open invalid: the generator fell behind its schedule (%d of %d sent over %d ms late, backlog %d)", overdue, ph.attempted, overdueMs, ph.backlog)
	}
	return nil
}

// overdueMs is how long after its due time an open-loop arrival may be
// sent, whether the generator overslept or both connections were busy:
// two and a half mean inter-arrival gaps at runOpenRate, and several
// times the slowest cell's service time. A run-open run is invalid
// when more than 10% of its arrivals are overdue, so the generator spent
// a tenth of the phase behind its schedule, or when more than 2% are
// still unsent when the window closes. Shorter stalls are not refused:
// a shared host's slow minutes made 4.7% of one run's arrivals overdue,
// and the latency from due time already counts them.
const overdueMs = 25

func metricsOf(specs []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// meanSelf is the mean self time, in ns, of spans named name.
func meanSelf(spans []Span, self []int64, name string) float64 {
	var sum, n float64
	for i, s := range spans {
		if s.Name == name {
			sum += float64(self[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// clusterStats derives the coordinator's self time per sweep (its span
// minus what its worker spans cover) and the shard imbalance (the
// busiest worker's total time over the mean).
func clusterStats(spans []Span, self []int64) (selfMs, imbalance float64) {
	busy := map[string]float64{}
	for _, s := range spans {
		if s.Name == "serve" && s.Node != "" {
			busy[s.Node] += float64(s.End - s.Start)
		}
	}
	var sum, top float64
	for _, b := range busy {
		sum += b
		top = math.Max(top, b)
	}
	if len(busy) > 0 && sum > 0 {
		imbalance = top / (sum / float64(len(busy)))
	}
	return meanSelf(spans, self, "cluster") / 1e6, imbalance
}

func coordSteals(f *fleet) int64 {
	if f.coord == nil {
		return 0
	}
	return f.coord.Metrics().Shards.Steals
}

// clusterProbe measures the coordinator for a workload whose own path
// has none: three sweeps of grid, traced, through a fresh espcoord
// fleet.
func clusterProbe(grid serve.SweepRequest, dir string, m map[string]float64) error {
	f, err := newFleet(true, dir)
	if err != nil {
		return err
	}
	defer f.close()
	tr := newTracer()
	f.tr.Store(tr)
	root := tr.begin("phase", "", -1, 0)
	for i := 0; i < 3; i++ {
		grid.SweepID = fmt.Sprintf("probe-%d", i)
		body, err := json.Marshal(grid)
		if err != nil {
			return err
		}
		rep, err := f.post("/sweep", body, int64(i+1), root)
		if err != nil {
			return err
		}
		if rep.status != 200 {
			return fmt.Errorf("cluster probe sweep answered %d", rep.status)
		}
	}
	tr.end(root)
	spans := tr.snapshot()
	m["cluster.self_ms"], m["cluster.shard_imbalance"] = clusterStats(spans, selfTimes(spans))
	m["cluster.steals"] = float64(coordSteals(f))
	return nil
}

// simulatedCounts derives the simulated-statistic metrics, which a
// speed-only change must leave exactly as they are.
func simulatedCounts(a simAgg, m map[string]float64) {
	pct := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d) * 100
	}
	m["mem.l1i_mpki"] = pct(a.l1iMiss, a.insts) * 10
	m["mem.l1d_miss_pct"] = pct(a.l1dMiss, a.l1dAcc)
	m["mem.prefetch_useful_pct"] = pct(a.pfUseful, a.pfInstalls)
	m["branch.mispredict_pct"] = pct(a.mispredicts, a.branches)
	m["cpu.imiss_pct"] = pct(a.imiss, a.cycles)
	m["cpu.dmiss_pct"] = pct(a.dmiss, a.cycles)
	m["cpu.branch_pct"] = pct(a.brcyc, a.cycles)
	m["core.preexec_pct"] = pct(a.preExec, a.espInsts)
	m["core.consumed_pct"] = pct(a.evConsume, a.evPre)
}

// reportLedger prints where the traced phase's wall time went. The
// engine time a server reports is split by its own runner counters into
// replay, build, and the rest (admission, retry executor, journal,
// result assembly, trace decode).
func reportLedger(name string, spans []Span, led map[string]float64, simWall, buildWall time.Duration, ops float64) {
	var engineSpans float64
	for _, s := range spans {
		if s.Name == "engine" {
			engineSpans += float64(s.End - s.Start)
		}
	}
	rows := map[string]float64{}
	for k, v := range led {
		rows[k] = v
	}
	if eng := rows["engine"]; eng > 0 && engineSpans > 0 {
		replay := math.Min(1, float64(simWall)/engineSpans)
		build := math.Min(1-replay, float64(buildWall)/engineSpans)
		rows["sim.replay"] = eng * replay
		rows["sim.build"] = eng * build
		rows["engine.other"] = eng * (1 - replay - build)
		delete(rows, "engine")
	}
	rootDur := 0.0
	for _, s := range spans {
		if s.Parent < 0 {
			rootDur = float64(s.End - s.Start)
		}
	}
	names := make([]string, 0, len(rows))
	var sum float64
	for k, v := range rows {
		names = append(names, k)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	var b strings.Builder
	top := ""
	for _, k := range names {
		if top == "" && k != "unattributed" {
			top = k
		}
		fmt.Fprintf(&b, "  %-14s %10.3f ms/op %6.2f%%\n", k, rows[k]/1e6/ops, rows[k]/rootDur*100)
	}
	logf("ledger, %s (traced span %.3f s, layers + unattributed %.3f s):\n%s  largest self time: %s",
		name, rootDur/1e9, sum/1e9, b.String(), top)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledgerbench: "+format+"\n", args...)
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the program only through its public entry points — recording runs
// (mbavf.RunWorkloadContext, RunStore.Save), figure sweeps
// (experiments.ByName(..).Run) and the analysis service
// (serve.New(..).Handler() over loopback HTTP) — checks every output
// against a reference, and prints its metrics, the last line of standard
// output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload record|sweep|serve --seed 1 --seconds 10 --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing at all. With --trace 1 the benchmark first re-runs itself
// untraced (a child process with the same seed), then measures again
// with spans, observability counters and CPU profiles on, and reports the
// per-layer metrics, the layer accounting and the tracing overhead.
// GLOSSARY.md defines every metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"mbavf/internal/obs"
)

// defaultSeed is the seed used while the benchmark was built and tuned;
// heldOutSeed was never used then, so a claimed gain can be confirmed on
// inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 3

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

// endToEnd lists the end-to-end metrics with their units; every workload
// reports all of them (see GLOSSARY.md for what each means per workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer lists the per-layer metrics with their units; a traced run of
// any workload reports all of them, 0 where the workload does not reach
// the layer.
var perLayer = []struct{ name, unit string }{
	{"sim.simulate_ms", "ms"},
	{"sim.alloc_mb", "MB"},
	{"sim.allocs", "count"},
	{"sim.cpu_share.gpu", "ratio"},
	{"sim.cpu_share.cache", "ratio"},
	{"sim.cpu_share.lifetime", "ratio"},
	{"sim.cpu_share.dataflow", "ratio"},
	{"sim.cpu_share.mem", "ratio"},
	{"runtime.cpu_share.gc", "ratio"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"cache.l1_hits", "count"},
	{"cache.l1_misses", "count"},
	{"cache.l2_hits", "count"},
	{"cache.l2_misses", "count"},
	{"store.encode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.artifact_mb", "MB"},
	{"store.loads", "count"},
	{"store.decode_ms", "ms"},
	{"serve.cache.runs.hits", "count"},
	{"serve.cache.runs.misses", "count"},
	{"serve.cache.runs.evictions", "count"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.policies_s", "s"},
	{"core.analyses", "count"},
	{"core.fault_groups", "count"},
	{"core.packed_rows", "count"},
	{"core.cpu_share.pack", "ratio"},
	{"core.cpu_share.sweep", "ratio"},
	{"policy.evals", "count"},
	{"policy.escalated_solves", "count"},
	{"policy.cpu_share", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.avf_p50_ms", "ms"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.policy_p50_ms", "ms"},
	{"serve.cache.results.hit_ratio", "ratio"},
	{"serve.cache.results.joins", "count"},
	{"serve.server_p50_ms", "ms"},
	{"serve.resp_bytes", "bytes"},
	{"serve.cpu_share.json", "ratio"},
	{"serve.cpu_share.http", "ratio"},
}

// bench is one run of one workload.
type bench struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	dir     string // scratch directory of this run, removed at exit

	attempted, failed int
	setup             []float64 // seconds per set-up repetition
	passSetup         []float64 // seconds to start the fresh server of each pass (serve)
	opsMS             []float64 // latency of each timed operation
	passP50, passP99  []float64 // median and p99 operation latency of each timed pass
	passOps           []int     // operations completed in each timed pass
	passS             []float64 // seconds of each timed pass
	timed             time.Duration
	liveHeapMB        []float64
	gcCPU, busyCPU    float64              // seconds, over the timed passes
	layers            map[string][]float64 // per-layer samples (traced runs)
	notes             []string
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	b.notef("FAIL: "+format, args...)
}

// sample records one observation of a per-layer metric; untraced runs
// keep none.
func (b *bench) sample(name string, v float64) {
	if b.tr.on {
		b.layers[name] = append(b.layers[name], v)
	}
}

// setupRepeated runs the workload's set-up setupReps times, timing each.
func (b *bench) setupRepeated(ctx context.Context, fn func(ctx context.Context, rep int) error) error {
	err := b.tr.profile(ctx, "setup", func(ctx context.Context) error {
		for rep := 0; rep < setupReps; rep++ {
			start := time.Now()
			if err := fn(ctx, rep); err != nil {
				return err
			}
			b.setup = append(b.setup, time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	return nil
}

// cpuClasses reads the runtime's CPU accounting, which advances at the
// end of each garbage collection.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func liveHeapBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// measure times one pass's measured work. Afterwards it forces a garbage
// collection, so the live heap reads what the pass retains and every pass
// starts from a collected heap; the CPU accounting spans collection to
// collection, so the GC share includes that one forced collection.
// fn returns the number of operations it completed.
func (b *bench) measure(ctx context.Context, fn func(ctx context.Context) (int, error)) error {
	gc0, busy0 := cpuClasses()
	var ops int
	var d time.Duration
	err := b.tr.profile(ctx, "pass", func(ctx context.Context) error {
		start := time.Now()
		var err error
		ops, err = fn(ctx)
		d = time.Since(start)
		return err
	})
	b.timed += d
	b.passS = append(b.passS, d.Seconds())
	b.passOps = append(b.passOps, ops)
	runtime.GC()
	b.liveHeapMB = append(b.liveHeapMB, liveHeapBytes()/1e6)
	gc1, busy1 := cpuClasses()
	b.gcCPU += gc1 - gc0
	b.busyCPU += busy1 - busy0
	return err
}

// passes calls pass until the measuring time is used up, and at least
// min times.
func (b *bench) passes(ctx context.Context, min int, pass func(ctx context.Context, i int) error) error {
	for i := 0; i < min || b.timed < b.seconds; i++ {
		if err := pass(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// freshDir returns a new empty directory inside the run's scratch space.
func (b *bench) freshDir(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// timedOps records the operation latencies of one timed pass.
func (b *bench) timedOps(lat []float64) {
	b.opsMS = append(b.opsMS, lat...)
	b.passP50 = append(b.passP50, median(lat))
	p99, _ := percentile(lat, 99)
	b.passP99 = append(b.passP99, p99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counterDelta reads one observability counter's growth between two
// registry snapshots.
func counterDelta(before, after map[string]uint64, name string) float64 {
	return float64(after[name] - before[name])
}

// analysisCounters pairs per-layer metrics with the observability
// counters of the store read path and the analysis layers.
var analysisCounters = [][2]string{
	{"store.loads", "store.hits"},
	{"core.analyses", "core.analyses"},
	{"core.fault_groups", "core.fault_groups"},
	{"core.packed_rows", "core.packed_rows"},
	{"policy.evals", "policy.evals"},
	{"policy.escalated_solves", "policy.escalated_solves"},
}

// sampleCounters samples each (metric, counter) pair's growth.
func (b *bench) sampleCounters(before, after map[string]uint64, pairs [][2]string) {
	for _, p := range pairs {
		b.sample(p[0], counterDelta(before, after, p[1]))
	}
}

var workloads = map[string]func(ctx context.Context, b *bench) error{
	"record": runRecord,
	"sweep":  runSweep,
	"serve":  runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: record, sweep or serve")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for confirming gains)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 10, "measuring time per run, in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch stores and traces")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload record|sweep|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*workload, fn, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, fn func(context.Context, *bench) error, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	var untraced *result
	if traced {
		var err error
		if untraced, err = runChild(workload, seed, seconds, workdir); err != nil {
			return nil, fmt.Errorf("untraced reference run: %w", err)
		}
	}
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Observability starts off in every process; the traced run turns it
	// on, and serve turns it on in any case because serve.New does.
	obs.Disable()
	if traced {
		obs.Enable()
	}
	b := &bench{
		seed: seed, seconds: time.Duration(seconds) * time.Second,
		tr: newTracer(traced), dir: dir, layers: map[string][]float64{},
	}
	ctx := context.Background()
	start := time.Now()
	err = b.tr.do(ctx, workload, "", func(ctx context.Context) error { return fn(ctx, b) })
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	e2e := b.endToEnd()
	fmt.Printf("%s: %d operations attempted, %d failed (error_ratio %.6g); %d timed samples over %.3f s\n",
		workload, b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)), len(b.opsMS), b.timed.Seconds())
	s := summarize(b.opsMS)
	fmt.Printf("latency ms, pooled: q1 %.4f  p50 %.4f  q3 %.4f  p99 %.4f (%d samples beyond p99)\n", s.q1, s.p50, s.q3, s.p99, s.p99Beyond)
	fmt.Printf("timed passes (s):")
	for _, p := range b.passS {
		fmt.Printf(" %.3f", p)
	}
	fmt.Printf("; p50 by pass (ms):")
	for _, p := range b.passP50 {
		fmt.Printf(" %.4f", p)
	}
	fmt.Printf("; p99 by pass (ms):")
	for _, p := range b.passP99 {
		fmt.Printf(" %.4f", p)
	}
	fmt.Printf("; set-ups (s):")
	for _, p := range b.setup {
		fmt.Printf(" %.3f", p)
	}
	fmt.Println()
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = e2e[m.name]
		}
		return res, nil
	}

	layers := b.perLayer()
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	b.printAccounting(wall)
	fmt.Println("tracing overhead (traced minus untraced, same seed):")
	for _, m := range endToEnd {
		t, u := e2e[m.name].Value, untraced.Metrics[m.name].Value
		pct := 0.0
		if u != 0 {
			pct = 100 * (t - u) / u
		}
		fmt.Printf("  %-18s traced %12.4f  untraced %12.4f  diff %+12.4f %s (%+.1f%%)\n", m.name, t, u, t-u, m.unit, pct)
	}
	tracePath := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := b.tr.writeChromeTrace(tracePath); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", tracePath, len(b.tr.spans))
	return res, nil
}

func (b *bench) endToEnd() map[string]metric {
	setup := median(b.setup) + median(b.passSetup)
	// A pooled p99 with fewer than ten samples beyond it is close to the
	// single slowest operation of the run; with so few operations per
	// pass (record, sweep) the median of the passes' own p99s is steadier.
	p99, beyond := percentile(b.opsMS, 99)
	if beyond < 10 {
		p99 = median(b.passP99)
	}
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"live_heap_mb":     {median(b.liveHeapMB), "MB"},
		"throughput_per_s": {b.throughput(), "1/s"},
		"latency_p50_ms":   {median(b.passP50), "ms"},
		"latency_p99_ms":   {p99, "ms"},
	}
}

// throughput is the operations completed per second over all the timed
// passes together.
func (b *bench) throughput() float64 {
	ops := 0
	for _, n := range b.passOps {
		ops += n
	}
	return float64(ops) / b.timed.Seconds()
}

// perLayer reduces the traced run's samples: medians of the per-pass (or
// per-set-up) observations, plus CPU shares from the profiles.
func (b *bench) perLayer() map[string]float64 {
	out := map[string]float64{}
	for name, xs := range b.layers {
		out[name] = median(xs)
	}
	if b.busyCPU > 0 {
		out["runtime.cpu_share.gc"] = b.gcCPU / b.busyCPU
	}
	setup, pass := b.tr.phaseProfile("setup"), b.tr.phaseProfile("pass")
	// The simulator runs in set-up everywhere but record, where it runs in
	// the passes; its shares come from whichever phase ran it.
	sim := pass
	if sim.byLayer["sim.simulate"] == nil {
		sim = setup
	}
	for _, pkg := range []string{"gpu", "cache", "lifetime", "dataflow", "mem"} {
		out["sim.cpu_share."+pkg] = sim.leafShare([]string{"sim.simulate"}, "mbavf/internal/"+pkg)
	}
	if put := out["store.put_ms"]; put > 0 {
		out["store.encode_ms"] = put * sim.insideShare("store.put", "mbavf/internal/store.Encode")
	}
	// Analysis runs in the timed passes of sweep and serve, and the
	// simulator's lifetime tracker in those of record; the shares are of
	// the pass's CPU outside simulation and recording.
	analysis := pass.layersExcept("sim.simulate", "store.put")
	out["core.cpu_share.pack"] = pass.leafShare(analysis, "mbavf/internal/lifetime")
	out["core.cpu_share.sweep"] = pass.leafShare(analysis, sweepPackages...)
	out["policy.cpu_share"] = pass.leafShare(analysis, "mbavf/internal/policy")
	if b.layers["serve.resp_bytes"] != nil {
		out["serve.cpu_share.json"] = pass.leafShare(analysis, "encoding/json")
		out["serve.cpu_share.http"] = pass.leafShare(analysis, httpPackages...)
	}
	return out
}

// sweepPackages hold the row sweep and classification: the solver and
// the bit-geometry, interleaving, interval and ECC code it calls.
var sweepPackages = []string{
	"mbavf/internal/core", "mbavf/internal/bitgeom", "mbavf/internal/interleave",
	"mbavf/internal/interval", "mbavf/internal/ecc",
}

// httpPackages carry HTTP requests between the clients and the server.
var httpPackages = []string{
	"net/http", "net/textproto", "net", "net/url", "bufio", "internal/poll", "syscall", "mime",
}

// printAccounting prints the traced run's wall time as the sum of the
// layers' self times plus the residual: time inside no layer span.
func (b *bench) printAccounting(wall time.Duration) {
	self := attribute(b.tr.spans)
	names := make([]string, 0, len(self))
	var sum time.Duration
	for n, d := range self {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("layer accounting: wall %.1f ms = sum of layer self times + residual\n", ms(wall))
	for _, n := range names {
		label := n
		if n == b.tr.spans[0].name {
			label = "residual (benchmark, no layer span)"
		}
		fmt.Printf("  %-40s %12.1f ms  %5.1f%%\n", label, ms(self[n]), 100*float64(self[n])/float64(wall))
	}
	fmt.Printf("  %-40s %12.1f ms  (outside the root span)\n", "unaccounted", ms(wall-sum))
}

// runChild runs this benchmark untraced with the same inputs and returns
// its result, for the tracing-overhead comparison.
func runChild(workload string, seed int64, seconds int, workdir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--workdir", workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing untraced result %q: %w", last, err)
	}
	return &res, nil
}

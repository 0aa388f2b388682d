package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"mbavf"
	"mbavf/internal/serve"
)

func TestGenQueriesSeeded(t *testing.T) {
	programs := mbavf.Workloads()
	pop1, list1 := genQueries(defaultSeed, programs)
	pop2, list2 := genQueries(defaultSeed, programs)
	if !reflect.DeepEqual(pop1, pop2) || !reflect.DeepEqual(list1, list2) {
		t.Fatal("the same seed generated different query lists")
	}
	_, other := genQueries(heldOutSeed, programs)
	if reflect.DeepEqual(list1, other) {
		t.Fatal("different seeds generated the same query list")
	}
	for seed := int64(0); seed <= 200; seed++ {
		popular, list := genQueries(seed, programs)
		if len(popular) != popularSize || len(list) != listLen {
			t.Fatalf("seed %d: %d popular, %d listed; want %d, %d", seed, len(popular), len(list), popularSize, listLen)
		}
		popKeys := map[string]bool{}
		for _, r := range popular {
			for _, p := range r.Points {
				popKeys[p.key(r.Route)] = true
			}
		}
		newKeys := map[string]bool{}
		pairs := map[[2]string]bool{}
		routes := map[string]int{}
		hits := 0
		for _, r := range list {
			if !r.New {
				hits++
				if !popKeys[r.Points[0].key(r.Route)] {
					t.Fatalf("seed %d: repeat %+v is not in the popular set", seed, r)
				}
				continue
			}
			routes[r.Route]++
			pairs[[2]string{r.Points[0].Program, r.Points[0].Structure}] = true
			for _, p := range r.Points {
				k := p.key(r.Route)
				if popKeys[k] || newKeys[k] {
					t.Fatalf("seed %d: never-seen query %s was already asked", seed, k)
				}
				newKeys[k] = true
			}
		}
		// The hit/miss split and the route mix of the never-seen queries
		// are the same for every seed.
		if hits != listLen-54 || len(pairs) != 54 {
			t.Fatalf("seed %d: %d repeats over %d (program, structure) pairs; want %d over 54", seed, hits, len(pairs), listLen-54)
		}
		if want := map[string]int{"avf": 27, "policy": 18, "batch": 9}; !reflect.DeepEqual(routes, want) {
			t.Fatalf("seed %d: never-seen routes %v, want %v", seed, routes, want)
		}
	}
}

func TestStatistics(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	var thousand []float64
	for i := 1000; i >= 1; i-- {
		thousand = append(thousand, float64(i))
	}
	if v, beyond := percentile(thousand, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(thousand[:100], 99); v != 999 || beyond != 1 {
		t.Errorf("p99 of 901..1000 = %v with %d beyond, want 999 with 1", v, beyond)
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("p99 of nothing = %v, %d", v, beyond)
	}
}

// TestPassAccounting shows how the end-to-end metrics pool the timed
// passes: throughput is all operations over all timed seconds, and the
// p50 is the median of the passes' own medians, so one slow pass moves
// neither far.
func TestPassAccounting(t *testing.T) {
	b := &bench{}
	for _, pass := range []struct {
		ops int
		s   float64
		lat []float64
	}{
		{4, 2, []float64{1, 2, 3, 4}},
		{4, 1, []float64{2, 3, 1, 2}},
		{2, 1, []float64{40, 50}},
	} {
		b.passOps = append(b.passOps, pass.ops)
		b.passS = append(b.passS, pass.s)
		b.timed += time.Duration(pass.s * float64(time.Second))
		b.timedOps(pass.lat)
	}
	if got := b.throughput(); got != 2.5 {
		t.Errorf("throughput = %v, want 10 operations / 4 s = 2.5", got)
	}
	if got, want := b.passP50, []float64{2.5, 2, 45}; !reflect.DeepEqual(got, want) {
		t.Errorf("per-pass p50 = %v, want %v", got, want)
	}
	if got := b.endToEnd()["latency_p50_ms"].Value; got != 2.5 {
		t.Errorf("latency_p50_ms = %v, want the median pass p50, 2.5", got)
	}
	if len(b.opsMS) != 10 {
		t.Errorf("pooled %d latencies, want 10", len(b.opsMS))
	}
	// Ten latencies leave no sample beyond the pooled p99 (50), so the
	// p99 is the median of the passes' p99s: 4, 3 and 50.
	if got := b.endToEnd()["latency_p99_ms"].Value; got != 4 {
		t.Errorf("latency_p99_ms of few samples = %v, want the median pass p99, 4", got)
	}
	// With 1000 more latencies of one pass, ten lie beyond the pooled
	// p99, which is then reported.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	b.timedOps(many)
	if got := b.endToEnd()["latency_p99_ms"].Value; got != 990 {
		t.Errorf("latency_p99_ms of 1010 samples = %v, want the pooled p99, 990", got)
	}
}

// TestCheckCountsAlteredValues shows that a response differing from the
// oracle in any single value, in its echoed query or in its status is a
// failure, and an exact one is not.
func TestCheckCountsAlteredValues(t *testing.T) {
	p := point{Program: "minife", Structure: "l1", Scheme: "parity", Style: "logical", Factor: 2, Mode: 3}
	val := serve.AVFValue{DUE: 0.125, SDC: 0.0625, TrueDUE: 0.1, FalseDUE: 0.025, SBAVF: 0.3, SBAVFLive: 0.2, Groups: 4096, Cycles: 13043}
	pol := mbavf.PolicyOutcome{AVF: mbavf.AVF{DUE: 0.2, SDC: 0.01, Groups: 10, Cycles: 5}, Baseline: mbavf.AVF{DUE: 0.1, Groups: 10, Cycles: 5}, DeltaDUE: 0.1, DeltaSDC: 0.01, AccumP: 0.5}
	pp := p
	pp.Scheme = "sec-ded-on-use"
	o := &oracle{
		avf:    map[string]serve.AVFValue{p.key("avf"): val},
		policy: map[string]mbavf.PolicyOutcome{pp.key("policy"): pol},
	}
	query := serve.AVFQuery{Workload: p.Program, Structure: p.Structure, Scheme: p.Scheme, Style: p.Style, Factor: p.Factor, ModeBits: p.Mode}
	encode := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	avfReq := request{Route: "avf", Points: []point{p}}
	good := serve.AVFResponse{AVFQuery: query, AVF: val, Cached: true, ElapsedMS: 0.01}
	if err := o.check(avfReq, http.StatusOK, encode(good)); err != nil {
		t.Fatalf("exact avf answer rejected: %v", err)
	}
	bad := good
	bad.AVF.SDC = math.Nextafter(bad.AVF.SDC, 1)
	if o.check(avfReq, http.StatusOK, encode(bad)) == nil {
		t.Error("avf answer off by one ulp accepted")
	}
	bad = good
	bad.ModeBits++
	if o.check(avfReq, http.StatusOK, encode(bad)) == nil {
		t.Error("answer to a different query accepted")
	}
	if o.check(avfReq, http.StatusInternalServerError, encode(good)) == nil {
		t.Error("error status accepted")
	}

	batchReq := request{Route: "batch", Points: []point{p}}
	items := []serve.BatchItem{{Result: &good}}
	if err := o.check(batchReq, http.StatusOK, encode(map[string]any{"results": items})); err != nil {
		t.Fatalf("exact batch answer rejected: %v", err)
	}
	badItem := good
	badItem.AVF.Groups++
	if o.check(batchReq, http.StatusOK, encode(map[string]any{"results": []serve.BatchItem{{Result: &badItem}}})) == nil {
		t.Error("batch answer with an altered value accepted")
	}
	if o.check(batchReq, http.StatusOK, encode(map[string]any{"results": []serve.BatchItem{{Error: "boom"}}})) == nil {
		t.Error("batch item error accepted")
	}

	polReq := request{Route: "policy", Points: []point{pp}}
	polGood := serve.PolicyResponse{
		PolicyQuery: serve.PolicyQuery{Workload: pp.Program, Structure: pp.Structure, Policy: pp.Scheme, Style: pp.Style,
			Factor: pp.Factor, ModeBits: pp.Mode, ScrubInterval: mbavf.DefaultScrubInterval},
		AVF: avfValue(pol.AVF), Baseline: avfValue(pol.Baseline), DeltaDUE: pol.DeltaDUE, DeltaSDC: pol.DeltaSDC, AccumP: pol.AccumP,
	}
	if err := o.check(polReq, http.StatusOK, encode(polGood)); err != nil {
		t.Fatalf("exact policy answer rejected: %v", err)
	}
	polBad := polGood
	polBad.AccumP = 0.25
	if o.check(polReq, http.StatusOK, encode(polBad)) == nil {
		t.Error("policy answer with an altered value accepted")
	}
}

func TestAttributeSumsToWall(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 1, name: "root", start: 0, end: ms(100)},
		{id: 2, parent: 1, name: "pass", start: ms(10), end: ms(90)},
		{id: 3, parent: 2, name: "client", lane: 1, start: ms(10), end: ms(90)},
		{id: 4, parent: 2, name: "client", lane: 2, start: ms(10), end: ms(70)},
		{id: 5, parent: 3, name: "req", lane: 1, start: ms(20), end: ms(60)},
	}
	got := attribute(spans)
	want := map[string]time.Duration{
		"root": ms(20), // before and after the pass
		// 10..20: both clients idle (5 each); 20..60: req and client 2
		// share (20 each); 60..70: both clients (5 each); 70..90: client 1.
		"client": ms(5+5) + ms(20) + ms(5+5) + ms(20),
		"req":    ms(20),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != ms(100) {
		t.Fatalf("attribution sums to %v, want the 100ms wall", sum)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mbavf/internal/gpu.(*Machine).step":                  "mbavf/internal/gpu",
		"runtime.mallocgc":                                    "runtime",
		"encoding/json.(*encodeState).marshal":                "encoding/json",
		"mbavf/internal/serve.(*Cache[go.shape.*uint8]).Get":  "mbavf/internal/serve",
		"mbavf/internal/core.sweep[mbavf/internal/x.T].func1": "mbavf/internal/core",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	tr := newTracer(true)
	_ = tr.do(context.Background(), "busy", "", func(context.Context) error {
		spin(300 * time.Millisecond)
		return nil
	})
	pprof.StopCPUProfile()
	ps, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	busy := ps.byLayer["busy"]
	if busy == nil || busy.total == 0 {
		t.Fatalf("no samples labelled with the span's layer: %+v", ps.byLayer)
	}
	if busy.inside["mbavf/perfbench.spin"] == 0 {
		t.Fatalf("spin not found on the sampled stacks: %v", busy.inside)
	}
}

// TestTracerConcurrentLanes records spans from two goroutines at once, as
// the serve clients do, and checks the accounting still sums to the wall
// time of the root span.
func TestTracerConcurrentLanes(t *testing.T) {
	tr := newTracer(true)
	ctx := context.Background()
	_ = tr.do(ctx, "root", "", func(ctx context.Context) error {
		var wg sync.WaitGroup
		for lane := 1; lane <= 2; lane++ {
			wg.Add(1)
			go func(ctx context.Context) {
				defer wg.Done()
				_ = tr.do(ctx, "client", "", func(ctx context.Context) error {
					for i := 0; i < 50; i++ {
						_ = tr.do(ctx, "req", "", func(context.Context) error {
							spin(100 * time.Microsecond)
							return nil
						})
					}
					return nil
				})
			}(withLane(ctx, lane))
		}
		wg.Wait()
		return nil
	})
	if len(tr.spans) != 1+2+100 {
		t.Fatalf("%d spans, want 103", len(tr.spans))
	}
	root := tr.spans[0].end - tr.spans[0].start
	var sum time.Duration
	for _, d := range attribute(tr.spans) {
		sum += d
	}
	// Splitting an instant among open spans rounds down by at most 1ns
	// per split.
	if diff := root - sum; diff < 0 || diff > time.Duration(2*len(tr.spans)) {
		t.Fatalf("attribution sums to %v, root span lasted %v", sum, root)
	}
	for _, s := range tr.spans[1:] {
		if s.lane == 0 || s.parent == 0 {
			t.Fatalf("span %+v lost its lane or parent", s)
		}
	}
}

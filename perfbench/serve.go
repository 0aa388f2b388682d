package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/serve"
)

// The serve workload's traffic. Every pass replays the same seeded list of
// requests against a fresh server: about 85% repeats of a popular set
// warmed before timing (result-cache hits, so their latency is HTTP/JSON
// plus the cache) and about 15% queries the server has never seen
// (result-cache misses: a store load and decode when the run is not
// resident, then an analysis).
//
// Every seed asks for the same amount of work; the seed picks the details.
// The never-seen queries cover every (program, structure) pair once, at
// fixed positions of the list in a fixed order, with the route and the
// interleaving factor fixed by the pair and batch configurations fixed
// entirely: the batches are the costliest requests and set the tail, and
// the order of the misses decides which runs stay resident.
const (
	serveClients = 2   // closed-loop client goroutines
	popularSize  = 8   // 4 avf, 3 policy, 1 batch
	listLen      = 360 // requests per pass
)

// newRoutes assigns the never-seen query of pair (program p, structure s)
// the route newRoutes[(p+s)%6]: half avf, a third policy, a sixth batch.
var newRoutes = [6]string{"avf", "avf", "avf", "policy", "policy", "batch"}

var factors = [3]int{1, 2, 4}

// point is one analysis the server computes: an AVF query (Scheme is an
// ECC scheme) or a policy query (Scheme is a policy name).
type point struct {
	Program, Structure, Scheme, Style string
	Factor, Mode                      int
}

func (p point) key(route string) string {
	kind := "avf"
	if route == "policy" {
		kind = "policy"
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", kind, p.Program, p.Structure, p.Scheme, p.Style, p.Factor, p.Mode)
}

// request is one HTTP request: GET /api/v1/avf, GET /api/v1/policy, or
// POST /api/v1/avf/batch over modes 1..8 of one configuration.
type request struct {
	Route  string
	New    bool
	Points []point
}

// queryGen draws requests whose analysis points were never drawn before.
type queryGen struct {
	rng  *rand.Rand
	used map[string]bool
}

// draw returns a request for the program and structure on the route,
// with a seeded style, scheme or policy, and mode. Batches ask for modes
// 1..8 of one configuration; a fixed batch uses the structure's first
// style and parity.
func (g *queryGen) draw(route, program string, st mbavf.Structure, factor int, fixed bool) request {
	for {
		p := point{Program: program, Structure: string(st), Factor: factor}
		styles := st.Styles()
		p.Style = string(styles[g.rng.Intn(len(styles))])
		if route == "policy" {
			pols := mbavf.Policies()
			p.Scheme = pols[g.rng.Intn(len(pols))]
		} else {
			schemes := mbavf.Schemes()
			p.Scheme = string(schemes[g.rng.Intn(len(schemes))])
		}
		p.Mode = 1 + g.rng.Intn(8)
		r := request{Route: route, Points: []point{p}}
		if route == "batch" {
			if fixed {
				p.Style, p.Scheme = string(styles[0]), string(mbavf.Parity)
			}
			r.Points = nil
			for m := 1; m <= 8; m++ {
				q := p
				q.Mode = m
				r.Points = append(r.Points, q)
			}
		}
		fresh := true
		for _, q := range r.Points {
			fresh = fresh && !g.used[q.key(route)]
		}
		if !fresh {
			continue
		}
		for _, q := range r.Points {
			g.used[q.key(route)] = true
		}
		return r
	}
}

// genQueries builds the popular set and the request list of a seed.
func genQueries(seed int64, programs []string) (popular, list []request) {
	g := &queryGen{rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	structures := mbavf.Structures()
	// Costliest routes first, so a pass does not end with one client
	// finishing a batch while the other idles.
	var fresh []request
	for _, route := range []string{"batch", "policy", "avf"} {
		for pi, prog := range programs {
			for si, st := range structures {
				if newRoutes[(pi+si)%len(newRoutes)] != route {
					continue
				}
				r := g.draw(route, prog, st, factors[(pi+2*si)%len(factors)], true)
				r.New = true
				fresh = append(fresh, r)
			}
		}
	}
	for i := 0; i < popularSize; i++ {
		route := "avf"
		if i >= 7 {
			route = "batch"
		} else if i >= 4 {
			route = "policy"
		}
		prog := programs[g.rng.Intn(len(programs))]
		popular = append(popular, g.draw(route, prog, structures[i%len(structures)], factors[g.rng.Intn(len(factors))], false))
	}
	repeats := make([]request, listLen-len(fresh))
	for i := range repeats {
		repeats[i] = popular[i%popularSize]
	}
	g.rng.Shuffle(len(repeats), func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })
	// The never-seen requests sit at evenly spaced positions, the k-th at
	// k*listLen/len(fresh).
	for i, k, rep := 0, 0, 0; i < listLen; i++ {
		if k < len(fresh) && i == k*listLen/len(fresh) {
			list = append(list, fresh[k])
			k++
			continue
		}
		list = append(list, repeats[rep])
		rep++
	}
	return popular, list
}

// wire is a request in its HTTP form.
type wire struct {
	method, path string
	body         []byte
}

func (r request) wire() (wire, error) {
	p := r.Points[0]
	switch r.Route {
	case "batch":
		var body struct {
			Queries []serve.AVFQuery `json:"queries"`
		}
		for _, q := range r.Points {
			body.Queries = append(body.Queries, serve.AVFQuery{
				Workload: q.Program, Structure: q.Structure, Scheme: q.Scheme,
				Style: q.Style, Factor: q.Factor, ModeBits: q.Mode,
			})
		}
		data, err := json.Marshal(body)
		return wire{http.MethodPost, "/api/v1/avf/batch", data}, err
	case "avf", "policy":
		v := url.Values{}
		v.Set("workload", p.Program)
		v.Set("structure", p.Structure)
		v.Set(map[string]string{"avf": "scheme", "policy": "policy"}[r.Route], p.Scheme)
		v.Set("style", p.Style)
		v.Set("factor", strconv.Itoa(p.Factor))
		v.Set("mode", strconv.Itoa(p.Mode))
		return wire{http.MethodGet, "/api/v1/" + r.Route + "?" + v.Encode(), nil}, nil
	}
	return wire{}, fmt.Errorf("unknown route %q", r.Route)
}

// oracle holds the expected answer of every analysis point, computed
// directly with Run.AVF and Run.PolicyAVF over the recorded runs.
type oracle struct {
	avf    map[string]serve.AVFValue
	policy map[string]mbavf.PolicyOutcome
}

func avfValue(a mbavf.AVF) serve.AVFValue {
	return serve.AVFValue{
		DUE: a.DUE, SDC: a.SDC, TrueDUE: a.TrueDUE, FalseDUE: a.FalseDUE,
		SBAVF: a.SBAVF, SBAVFLive: a.SBAVFLive, Groups: a.Groups, Cycles: a.Cycles,
	}
}

// computeOracle evaluates every point of the requests, one program at a
// time on each of serveClients goroutines.
func computeOracle(ctx context.Context, rs *mbavf.RunStore, reqs []request) (*oracle, error) {
	type job struct {
		route string
		p     point
	}
	byProgram := map[string][]job{}
	seen := map[string]bool{}
	var order []string
	for _, r := range reqs {
		for _, p := range r.Points {
			if k := p.key(r.Route); !seen[k] {
				seen[k] = true
				if byProgram[p.Program] == nil {
					order = append(order, p.Program)
				}
				byProgram[p.Program] = append(byProgram[p.Program], job{r.Route, p})
			}
		}
	}
	o := &oracle{avf: map[string]serve.AVFValue{}, policy: map[string]mbavf.PolicyOutcome{}}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, serveClients)
	)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				prog := order[i]
				run, err := rs.LoadContext(ctx, prog)
				if err != nil {
					errs[w] = fmt.Errorf("loading %s: %w", prog, err)
					return
				}
				for _, j := range byProgram[prog] {
					st, err := mbavf.ParseStructure(j.p.Structure)
					if err != nil {
						errs[w] = err
						return
					}
					il := mbavf.Interleaving{Style: mbavf.Style(j.p.Style), Factor: j.p.Factor}
					if j.route == "policy" {
						out, err := run.PolicyAVF(st, j.p.Scheme, il, j.p.Mode, mbavf.DefaultScrubInterval)
						if err != nil {
							errs[w] = fmt.Errorf("%s: %w", j.p.key(j.route), err)
							return
						}
						mu.Lock()
						o.policy[j.p.key(j.route)] = out
						mu.Unlock()
						continue
					}
					a, err := run.AVF(st, mbavf.Scheme(j.p.Scheme), il, j.p.Mode)
					if err != nil {
						errs[w] = fmt.Errorf("%s: %w", j.p.key(j.route), err)
						return
					}
					mu.Lock()
					o.avf[j.p.key(j.route)] = avfValue(a)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return o, nil
}

// check compares one response with the oracle; any difference, in the
// echoed query or in any value, is an error.
func (o *oracle) check(r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	echo := func(q serve.AVFQuery, p point) error {
		want := serve.AVFQuery{Workload: p.Program, Structure: p.Structure, Scheme: p.Scheme, Style: p.Style, Factor: p.Factor, ModeBits: p.Mode}
		if q != want {
			return fmt.Errorf("answered %+v, asked %+v", q, want)
		}
		return nil
	}
	switch r.Route {
	case "avf":
		var got serve.AVFResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		p := r.Points[0]
		if err := echo(got.AVFQuery, p); err != nil {
			return err
		}
		if want := o.avf[p.key(r.Route)]; got.AVF != want {
			return fmt.Errorf("%s: got %+v, want %+v", p.key(r.Route), got.AVF, want)
		}
	case "batch":
		var got struct {
			Results []serve.BatchItem `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(r.Points) {
			return fmt.Errorf("batch answered %d of %d queries", len(got.Results), len(r.Points))
		}
		for i, item := range got.Results {
			p := r.Points[i]
			if item.Result == nil {
				return fmt.Errorf("%s: %s", p.key(r.Route), item.Error)
			}
			if err := echo(item.Result.AVFQuery, p); err != nil {
				return err
			}
			if want := o.avf[p.key(r.Route)]; item.Result.AVF != want {
				return fmt.Errorf("%s: got %+v, want %+v", p.key(r.Route), item.Result.AVF, want)
			}
		}
	case "policy":
		var got serve.PolicyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		p := r.Points[0]
		want := serve.PolicyQuery{Workload: p.Program, Structure: p.Structure, Policy: p.Scheme, Style: p.Style,
			Factor: p.Factor, ModeBits: p.Mode, ScrubInterval: mbavf.DefaultScrubInterval}
		if got.PolicyQuery != want {
			return fmt.Errorf("answered %+v, asked %+v", got.PolicyQuery, want)
		}
		w := o.policy[p.key(r.Route)]
		if got.AVF != avfValue(w.AVF) || got.Baseline != avfValue(w.Baseline) || got.DeltaDUE != w.DeltaDUE ||
			got.DeltaSDC != w.DeltaSDC || got.AccumP != w.AccumP || got.Escalated != w.Escalated {
			return fmt.Errorf("%s: got %+v, want %+v", p.key(r.Route), got, w)
		}
	default:
		return fmt.Errorf("unknown route %q", r.Route)
	}
	return nil
}

// reply is one answered request, kept until the oracle checks it.
type reply struct {
	req     request
	status  int
	body    []byte
	latency time.Duration
	timed   bool
	pass    int
}

// send issues one request and reads the whole response.
func send(ctx context.Context, hc *http.Client, base string, w wire) (int, []byte, error) {
	var body io.Reader
	if w.body != nil {
		body = bytes.NewReader(w.body)
	}
	hr, err := http.NewRequestWithContext(ctx, w.method, base+w.path, body)
	if err != nil {
		return 0, nil, err
	}
	if w.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func histogram(name string) obs.HistSnapshot {
	for _, h := range obs.Histograms() {
		if h.Name == name {
			return h
		}
	}
	return obs.HistSnapshot{Name: name}
}

// histDelta returns the observations recorded between two snapshots.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

// runServe is the serve workload: serveClients closed-loop clients — each
// waits for its reply before sending the next request, as scripts and
// mbavf-exp do — against an in-process serve.Server over a disk store
// recorded in set-up. Each pass starts a fresh server (empty run and
// result caches) over the same store. The 18 programs overflow the run
// cache (16 runs), so evictions and store reloads show in the tail.
func runServe(ctx context.Context, b *bench) error {
	programs := mbavf.Workloads()
	var rs *mbavf.RunStore
	if err := b.setupRepeated(ctx, func(ctx context.Context, rep int) error {
		name := fmt.Sprintf("setup-%d", rep)
		var err error
		if rs, err = b.openStore(name); err != nil {
			return err
		}
		_, err = b.recordPrograms(ctx, rs, programs, name)
		return err
	}); err != nil {
		return err
	}
	popular, list := genQueries(b.seed, programs)
	all := append(append([]request(nil), popular...), list...)
	wires := map[string]wire{}
	for _, r := range all {
		w, err := r.wire()
		if err != nil {
			return err
		}
		wires[r.Points[0].key(r.Route)] = w
	}
	var replies []reply
	err := b.passes(ctx, 5, func(ctx context.Context, pass int) error {
		rep, err := b.servePass(ctx, rs, popular, list, wires, pass)
		replies = append(replies, rep...)
		return err
	})
	if err != nil {
		return err
	}

	// Check every reply against answers computed directly from the store.
	var o *oracle
	if err := b.tr.do(ctx, "oracle", "", func(ctx context.Context) error {
		o, err = computeOracle(ctx, rs, all)
		return err
	}); err != nil {
		return err
	}
	var hit, miss, respBytes []float64
	byRoute := map[string][]float64{}
	byPass := map[int][]float64{}
	for _, r := range replies {
		b.attempted++
		if err := o.check(r.req, r.status, r.body); err != nil {
			b.fail(1, "%s request: %v", r.req.Route, err)
		}
		if !r.timed {
			continue
		}
		lat := ms(r.latency)
		byPass[r.pass] = append(byPass[r.pass], lat)
		byRoute[r.req.Route] = append(byRoute[r.req.Route], lat)
		respBytes = append(respBytes, float64(len(r.body)))
		if r.req.New {
			miss = append(miss, lat)
		} else {
			hit = append(hit, lat)
		}
	}
	for i := 0; i < len(byPass); i++ {
		b.timedOps(byPass[i])
	}
	p99, beyond := percentile(miss, 99)
	b.notef("serve: %d hits, %d never-seen; miss p99 %.3f ms has %d samples beyond it", len(hit), len(miss), p99, beyond)
	b.sample("serve.hit_p50_ms", median(hit))
	b.sample("serve.miss_p50_ms", median(miss))
	b.sample("serve.miss_p99_ms", p99)
	for _, route := range []string{"avf", "batch", "policy"} {
		b.sample("serve."+route+"_p50_ms", median(byRoute[route]))
	}
	var total float64
	for _, x := range respBytes {
		total += x
	}
	b.sample("serve.resp_bytes", total/float64(max(len(respBytes), 1)))
	return nil
}

// servePass runs one pass: a fresh server (its construction counts as
// set-up), the popular set warmed (untimed), then the whole list sent by
// the closed-loop clients.
func (b *bench) servePass(ctx context.Context, rs *mbavf.RunStore, popular, list []request, wires map[string]wire, pass int) ([]reply, error) {
	setupStart := time.Now()
	srv := serve.New(serve.Config{Store: rs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: time.Minute}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	b.passSetup = append(b.passSetup, time.Since(setupStart).Seconds())
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	hc := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = hs.Shutdown(shutCtx) // the pass is over; a slow close only delays the next one
		<-served
		_ = srv.Drain(shutCtx)
		transport.CloseIdleConnections()
	}()

	sims := func() uint64 { return obs.Counters()["serve.simulations"] }
	sims0 := sims()
	var replies []reply
	if err := b.tr.do(ctx, "serve.warm", fmt.Sprintf("pass%d", pass), func(ctx context.Context) error {
		for _, r := range popular {
			status, body, err := send(ctx, hc, base, wires[r.Points[0].key(r.Route)])
			if err != nil {
				return fmt.Errorf("warming the popular set: %w", err)
			}
			replies = append(replies, reply{req: r, status: status, body: body})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	c0 := obs.Counters()
	h0, d0 := histogram("serve.request_ns"), histogram("store.decode_ns")
	timed := make([]reply, len(list))
	var next atomic.Int64
	errs := make([]error, serveClients)
	err = b.measure(ctx, func(ctx context.Context) (int, error) {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx := withLane(ctx, c+1)
				_ = b.tr.do(ctx, "serve.client", "", func(ctx context.Context) error {
					for {
						i := int(next.Add(1)) - 1
						if i >= len(list) {
							return nil
						}
						r := list[i]
						err := b.tr.do(ctx, "serve."+r.Route, fmt.Sprintf("pass%d/req%d", pass, i), func(ctx context.Context) error {
							start := time.Now()
							status, body, err := send(ctx, hc, base, wires[r.Points[0].key(r.Route)])
							timed[i] = reply{req: r, status: status, body: body, latency: time.Since(start), timed: true, pass: pass}
							return err
						})
						if err != nil {
							errs[c] = err
							return err
						}
					}
				})
			}(c)
		}
		wg.Wait()
		return len(list), errors.Join(errs...)
	})
	if err != nil {
		return nil, fmt.Errorf("serve pass %d: %w", pass, err)
	}
	replies = append(replies, timed...)
	if n := sims() - sims0; n != 0 {
		// The store is warm, so a simulation means this pass measured
		// something other than serving.
		b.fail(len(replies), "serve pass %d invalid: %d simulations", pass, n)
	}
	if b.tr.on {
		c1 := obs.Counters()
		b.sampleCounters(c0, c1, analysisCounters)
		b.sampleCounters(c0, c1, [][2]string{
			{"serve.cache.runs.hits", "serve.cache.runs.hits"},
			{"serve.cache.runs.misses", "serve.cache.runs.misses"},
			{"serve.cache.runs.evictions", "serve.cache.runs.evictions"},
			{"serve.cache.results.joins", "serve.cache.results.joins"},
		})
		hits := counterDelta(c0, c1, "serve.cache.results.hits")
		all := hits + counterDelta(c0, c1, "serve.cache.results.misses") + counterDelta(c0, c1, "serve.cache.results.joins")
		b.sample("serve.cache.results.hit_ratio", hits/all)
		req := histDelta(h0, histogram("serve.request_ns"))
		b.sample("serve.server_p50_ms", float64(req.Quantile(0.5))/1e6)
		if loads := counterDelta(c0, c1, "store.hits"); loads > 0 {
			dec := histDelta(d0, histogram("store.decode_ns"))
			b.sample("store.decode_ms", float64(dec.Sum)/1e6/loads)
		}
	}
	return replies, nil
}

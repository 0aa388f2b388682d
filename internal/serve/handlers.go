package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mbavf"
	"mbavf/internal/mttf"
	"mbavf/internal/obs"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/workloads"
)

// AVFQuery names one point of the MB-AVF query space. It is the wire
// form of Run.AVF's parameters plus the workload: every field is a plain
// string or integer so the same shape works as JSON body and as URL
// query parameters.
type AVFQuery struct {
	Workload  string `json:"workload"`
	Structure string `json:"structure"`
	Scheme    string `json:"scheme"`
	Style     string `json:"style"`
	Factor    int    `json:"factor"`
	ModeBits  int    `json:"mode_bits"`
}

// key is the result-cache key: one entry per distinct query point.
func (q AVFQuery) key(kind string) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d", kind, q.Workload, q.Structure, q.Scheme, q.Style, q.Factor, q.ModeBits)
}

// validate resolves and checks the query's enums before any expensive
// work, so malformed queries fail fast with a client error.
func (q AVFQuery) validate(needMode bool) (mbavf.Structure, mbavf.Scheme, mbavf.Interleaving, error) {
	st, err := mbavf.ParseStructure(q.Structure)
	if err != nil {
		return "", "", mbavf.Interleaving{}, err
	}
	scheme := mbavf.Scheme(q.Scheme)
	ok := false
	for _, s := range mbavf.Schemes() {
		if s == scheme {
			ok = true
		}
	}
	if !ok {
		return "", "", mbavf.Interleaving{}, fmt.Errorf("%w: unknown scheme %q", mbavf.ErrBadOption, q.Scheme)
	}
	il := mbavf.Interleaving{Style: mbavf.Style(q.Style), Factor: q.Factor}
	ok = false
	for _, s := range st.Styles() {
		if s == il.Style {
			ok = true
		}
	}
	if !ok {
		return "", "", mbavf.Interleaving{}, fmt.Errorf("%w: style %q not valid for structure %q (have %v)",
			mbavf.ErrBadOption, q.Style, q.Structure, st.Styles())
	}
	if il.Factor < 1 {
		return "", "", mbavf.Interleaving{}, fmt.Errorf("%w: interleaving factor %d must be >= 1", mbavf.ErrBadOption, il.Factor)
	}
	if needMode && q.ModeBits < 1 {
		return "", "", mbavf.Interleaving{}, fmt.Errorf("%w: mode_bits must be >= 1 (got %d)", mbavf.ErrBadOption, q.ModeBits)
	}
	return st, scheme, il, nil
}

// AVFValue is the JSON form of an AVF measurement.
type AVFValue struct {
	DUE       float64 `json:"due"`
	SDC       float64 `json:"sdc"`
	TrueDUE   float64 `json:"true_due"`
	FalseDUE  float64 `json:"false_due"`
	SBAVF     float64 `json:"sb_avf"`
	SBAVFLive float64 `json:"sb_avf_live"`
	Groups    int     `json:"groups"`
	Cycles    uint64  `json:"cycles"`
}

func avfValue(a mbavf.AVF) AVFValue {
	return AVFValue{
		DUE: a.DUE, SDC: a.SDC, TrueDUE: a.TrueDUE, FalseDUE: a.FalseDUE,
		SBAVF: a.SBAVF, SBAVFLive: a.SBAVFLive, Groups: a.Groups, Cycles: a.Cycles,
	}
}

// AVFResponse is one answered AVF query.
type AVFResponse struct {
	AVFQuery
	AVF AVFValue `json:"avf"`
	// Cached reports a result-cache hit: the query was answered without
	// touching the run, let alone simulating.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// SERResponse is one answered soft-error-rate query (FIT-weighted over
// the paper's Table III fault modes).
type SERResponse struct {
	AVFQuery
	SDCFit    float64 `json:"sdc_fit"`
	DUEFit    float64 `json:"due_fit"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpStatus maps an error to its response code: bad options are the
// client's fault, unknown names are 404, timeouts are 504, drain
// cancellations are 503, anything else is a server error.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, mbavf.ErrBadOption):
		return http.StatusBadRequest
	case errors.Is(err, errUnknownWorkload):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), apiError{Error: err.Error()})
}

// Handler builds the service's route table:
//
//	GET  /healthz                  liveness (503 while draining)
//	GET  /metrics                  Prometheus text exposition
//	GET  /api/v1/workloads         bundled workloads + descriptions
//	GET  /api/v1/catalog           full query vocabulary
//	GET  /api/v1/avf               one AVF query (query parameters)
//	POST /api/v1/avf               one AVF query (JSON body)
//	POST /api/v1/avf/batch         many AVF queries in one request
//	GET  /api/v1/ser               one SER query (query parameters)
//	POST /api/v1/ser               one SER query (JSON body)
//	GET  /api/v1/policy            one protection-policy query (query parameters)
//	POST /api/v1/policy            one protection-policy query (JSON body)
//	GET  /api/v1/experiments       runnable paper artifacts
//	POST /api/v1/jobs/injection    async fault-injection campaign
//	POST /api/v1/jobs/experiment   async experiment regeneration
//	GET  /api/v1/jobs              all jobs, newest first
//	GET  /api/v1/jobs/{id}         one job's status/result
//	DELETE /api/v1/jobs/{id}       cancel a job
//
// With ServeArtifacts the HTTP artifact protocol mounts too (the GET
// patterns also answer HEAD):
//
//	GET  /store/v1/artifacts/{key} one artifact (Range-aware)
//	PUT  /store/v1/artifacts/{key} record an artifact
//	DELETE /store/v1/artifacts/{key} remove (or ?quarantine=1) one
//	GET  /store/v1/catalog         stored artifacts (ETag/304)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET "+obs.PromHandlerPath, obs.PromHandler())
	mux.Handle("GET /api/v1/workloads", s.wrap("workloads", s.handleWorkloads))
	mux.Handle("GET /api/v1/catalog", s.wrap("catalog", s.handleCatalog))
	mux.Handle("GET /api/v1/avf", s.wrap("avf", s.handleAVF))
	mux.Handle("POST /api/v1/avf", s.wrap("avf", s.handleAVF))
	mux.Handle("POST /api/v1/avf/batch", s.wrap("avf_batch", s.handleAVFBatch))
	mux.Handle("GET /api/v1/ser", s.wrap("ser", s.handleSER))
	mux.Handle("POST /api/v1/ser", s.wrap("ser", s.handleSER))
	mux.Handle("GET /api/v1/policy", s.wrap("policy", s.handlePolicy))
	mux.Handle("POST /api/v1/policy", s.wrap("policy", s.handlePolicy))
	mux.Handle("GET /api/v1/mttf", s.wrap("mttf", s.handleMTTF))
	mux.Handle("GET /api/v1/experiments", s.wrap("experiments", s.handleExperiments))
	mux.Handle("POST /api/v1/jobs/injection", s.wrap("jobs_injection", s.handleJobInjection))
	mux.Handle("POST /api/v1/jobs/experiment", s.wrap("jobs_experiment", s.handleJobExperiment))
	mux.Handle("GET /api/v1/jobs", s.wrap("jobs_list", s.handleJobList))
	mux.Handle("GET /api/v1/jobs/{id}", s.wrap("jobs_get", s.handleJobGet))
	mux.Handle("DELETE /api/v1/jobs/{id}", s.wrap("jobs_cancel", s.handleJobCancel))
	if s.artifacts != nil {
		mux.Handle("GET "+httpstore.Prefix+"/artifacts/{key}", s.wrap("store_artifact", s.artifacts.HandleGet))
		mux.Handle("PUT "+httpstore.Prefix+"/artifacts/{key}", s.wrap("store_artifact", s.artifacts.HandlePut))
		mux.Handle("DELETE "+httpstore.Prefix+"/artifacts/{key}", s.wrap("store_artifact", s.artifacts.HandleDelete))
		mux.Handle("GET "+httpstore.Prefix+"/catalog", s.wrap("store_catalog", s.artifacts.HandleCatalog))
	}
	s.mountFabric(mux)
	return mux
}

// statusRecorder captures the response code for the error counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// wrap is the request middleware: drain refusal, in-flight tracking for
// graceful shutdown, the per-request timeout (also cut short by server
// shutdown), and request metrics with a per-route phase span.
func (s *Server) wrap(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
			return
		}
		s.reqWG.Add(1)
		defer s.reqWG.Done()
		obsRequests.Add(1)
		obsInflight.Set(s.inflight.Add(1))
		defer func() { obsInflight.Set(s.inflight.Add(-1)) }()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		stopAfter := context.AfterFunc(s.base, cancel)
		defer stopAfter()

		sp := obs.StartSpan2("http:", name)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		began := time.Now()
		h(rec, r.WithContext(ctx))
		obsReqNS.Record(uint64(time.Since(began)))
		sp.End()
		switch {
		case rec.status >= 500:
			obsResponses5.Add(1)
		case rec.status >= 400:
			obsResponses4.Add(1)
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type wl struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	out := struct {
		Workloads []wl `json:"workloads"`
	}{}
	for _, name := range workloads.Names() {
		out.Workloads = append(out.Workloads, wl{Name: name, Description: s.descriptions[name]})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	type structure struct {
		Name   string   `json:"name"`
		Styles []string `json:"styles"`
	}
	out := struct {
		Workloads   []string    `json:"workloads"`
		Structures  []structure `json:"structures"`
		Schemes     []string    `json:"schemes"`
		Policies    []string    `json:"policies"`
		Experiments []string    `json:"experiments"`
	}{
		Workloads:   workloads.Names(),
		Policies:    mbavf.Policies(),
		Experiments: mbavf.Experiments(),
	}
	for _, st := range mbavf.Structures() {
		cs := structure{Name: string(st)}
		for _, style := range st.Styles() {
			cs.Styles = append(cs.Styles, string(style))
		}
		out.Structures = append(out.Structures, cs)
	}
	for _, sch := range mbavf.Schemes() {
		out.Schemes = append(out.Schemes, string(sch))
	}
	writeJSON(w, http.StatusOK, out)
}

// parseAVFQuery accepts the query either as URL parameters (GET) or as a
// JSON body (POST).
func parseAVFQuery(r *http.Request) (AVFQuery, error) {
	var q AVFQuery
	if r.Method == http.MethodPost {
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			return q, fmt.Errorf("%w: decoding body: %v", mbavf.ErrBadOption, err)
		}
		return q, nil
	}
	v := r.URL.Query()
	q.Workload = v.Get("workload")
	q.Structure = v.Get("structure")
	q.Scheme = v.Get("scheme")
	q.Style = v.Get("style")
	var err error
	if q.Factor, err = atoiDefault(v.Get("factor"), 1); err != nil {
		return q, fmt.Errorf("%w: factor: %v", mbavf.ErrBadOption, err)
	}
	if q.ModeBits, err = atoiDefault(v.Get("mode"), 0); err != nil {
		return q, fmt.Errorf("%w: mode: %v", mbavf.ErrBadOption, err)
	}
	return q, nil
}

func atoiDefault(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// queryAVF answers one AVF query through the two-level cache: a result
// hit costs a map lookup; a result miss costs one analysis over the
// (cached or singleflight-deduplicated) run.
func (s *Server) queryAVF(ctx context.Context, q AVFQuery) (AVFResponse, error) {
	st, scheme, il, err := q.validate(true)
	if err != nil {
		return AVFResponse{}, err
	}
	began := time.Now()
	v, cached, err := s.results.Get(ctx, q.key("avf"), func() (any, error) {
		run, _, err := s.run(ctx, q.Workload, st)
		if err != nil {
			return nil, err
		}
		return run.AVF(st, scheme, il, q.ModeBits)
	})
	if err != nil {
		return AVFResponse{}, err
	}
	return AVFResponse{
		AVFQuery:  q,
		AVF:       avfValue(v.(mbavf.AVF)),
		Cached:    cached,
		ElapsedMS: float64(time.Since(began)) / float64(time.Millisecond),
	}, nil
}

func (s *Server) handleAVF(w http.ResponseWriter, r *http.Request) {
	q, err := parseAVFQuery(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.queryAVF(r.Context(), q)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchItem is one outcome of a batch query: either a result or an
// error (batch requests are not transactional; each query stands alone).
type BatchItem struct {
	Result *AVFResponse `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

func (s *Server) handleAVFBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Queries []AVFQuery `json:"queries"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding body: %v", mbavf.ErrBadOption, err))
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, fmt.Errorf("%w: empty batch", mbavf.ErrBadOption))
		return
	}
	if len(req.Queries) > maxBatch {
		writeErr(w, fmt.Errorf("%w: batch of %d exceeds limit %d", mbavf.ErrBadOption, len(req.Queries), maxBatch))
		return
	}
	var items []BatchItem
	if s.coord != nil {
		var err error
		items, err = s.batchDistributed(r.Context(), req.Queries)
		if err != nil {
			writeErr(w, err)
			return
		}
	} else {
		items = make([]BatchItem, len(req.Queries))
		var wg sync.WaitGroup
		for i, q := range req.Queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.queryAVF(r.Context(), q)
				if err != nil {
					items[i].Error = err.Error()
					return
				}
				items[i].Result = &resp
			}()
		}
		wg.Wait()
	}
	writeJSON(w, http.StatusOK, struct {
		Results []BatchItem `json:"results"`
	}{items})
}

func (s *Server) handleSER(w http.ResponseWriter, r *http.Request) {
	q, err := parseAVFQuery(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	st, scheme, il, err := q.validate(false)
	if err != nil {
		writeErr(w, err)
		return
	}
	began := time.Now()
	v, cached, err := s.results.Get(r.Context(), q.key("ser"), func() (any, error) {
		run, _, err := s.run(r.Context(), q.Workload, st)
		if err != nil {
			return nil, err
		}
		return run.SER(st, scheme, il)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	ser := v.(mbavf.SER)
	writeJSON(w, http.StatusOK, SERResponse{
		AVFQuery:  q,
		SDCFit:    ser.SDC,
		DUEFit:    ser.DUE,
		Cached:    cached,
		ElapsedMS: float64(time.Since(began)) / float64(time.Millisecond),
	})
}

// MTTFResponse answers the Figure 2 analytical model: the cache's mean
// time to failure from spatial vs temporal multi-bit faults.
type MTTFResponse struct {
	Bits           float64 `json:"bits"`
	WordBits       float64 `json:"word_bits"`
	RawFITPerBit   float64 `json:"raw_fit_per_bit"`
	SMBFFraction   float64 `json:"smbf_fraction"`
	LifetimeHours  float64 `json:"lifetime_hours"`
	SpatialYears   float64 `json:"spatial_mttf_years"`
	TemporalYears  float64 `json:"temporal_mttf_years"`
	SpatialOverTmp float64 `json:"temporal_over_spatial"`
}

// handleMTTF evaluates the workload-independent MTTF model — no
// simulation, no cache; defaults are the paper's 32MB / 64-bit-word
// structure at raw rate 1e-4 FIT/bit with a 5% multi-bit fraction.
func (s *Server) handleMTTF(w http.ResponseWriter, r *http.Request) {
	p := mttf.Default32MB()
	p.RawFITPerBit = 1e-4
	p.SMBFFraction = 0.05
	v := r.URL.Query()
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"bits", &p.Bits},
		{"word_bits", &p.WordBits},
		{"raw_fit_per_bit", &p.RawFITPerBit},
		{"smbf_fraction", &p.SMBFFraction},
		{"lifetime_hours", &p.LifetimeHours},
	} {
		if raw := v.Get(f.name); raw != "" {
			x, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				writeErr(w, fmt.Errorf("%w: %s: %v", mbavf.ErrBadOption, f.name, err))
				return
			}
			*f.dst = x
		}
	}
	spatial, err := mttf.SpatialMTTF(p)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", mbavf.ErrBadOption, err))
		return
	}
	temporal, err := mttf.TemporalMTTF(p)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", mbavf.ErrBadOption, err))
		return
	}
	writeJSON(w, http.StatusOK, MTTFResponse{
		Bits: p.Bits, WordBits: p.WordBits, RawFITPerBit: p.RawFITPerBit,
		SMBFFraction: p.SMBFFraction, LifetimeHours: p.LifetimeHours,
		SpatialYears:   spatial / mttf.HoursPerYear,
		TemporalYears:  temporal / mttf.HoursPerYear,
		SpatialOverTmp: temporal / spatial,
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{mbavf.Experiments()})
}

// InjectionJobRequest configures an asynchronous fault-injection
// campaign job.
type InjectionJobRequest struct {
	Workload   string `json:"workload"`
	Injections int    `json:"injections"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
}

// InjectionJobResult is a finished campaign's summary.
type InjectionJobResult struct {
	Workload    string `json:"workload"`
	Injections  int    `json:"injections"`
	Seed        int64  `json:"seed"`
	Masked      int    `json:"masked"`
	SDC         int    `json:"sdc"`
	DUE         int    `json:"due"`
	Hang        int    `json:"hang"`
	Crash       int    `json:"crash"`
	InfraErrors int    `json:"infra_errors"`
}

func (s *Server) handleJobInjection(w http.ResponseWriter, r *http.Request) {
	var req InjectionJobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding body: %v", mbavf.ErrBadOption, err))
		return
	}
	if _, ok := s.descriptions[req.Workload]; !ok {
		writeErr(w, fmt.Errorf("%w: %q", errUnknownWorkload, req.Workload))
		return
	}
	if req.Injections < 1 {
		writeErr(w, fmt.Errorf("%w: injections must be >= 1 (got %d)", mbavf.ErrBadOption, req.Injections))
		return
	}
	if req.Workers < 1 {
		req.Workers = runtime.GOMAXPROCS(0)
	}
	j := s.jobs.submit("injection", req.Workload, int64(req.Injections), func(ctx context.Context, j *job) (any, error) {
		ic, err := mbavf.NewInjectionCampaignContext(ctx, req.Workload)
		if err != nil {
			return nil, err
		}
		_, sum, err := ic.RunCampaign(ctx, mbavf.CampaignRunConfig{
			Injections: req.Injections,
			Seed:       req.Seed,
			Workers:    req.Workers,
			Fabric:     s.fabricOptions(),
			Progress: func(completed, _ int) {
				j.completed.Store(int64(completed))
			},
		})
		if err != nil {
			return nil, err
		}
		return InjectionJobResult{
			Workload: req.Workload, Injections: req.Injections, Seed: req.Seed,
			Masked: sum.Masked, SDC: sum.SDC, DUE: sum.DUE, Hang: sum.Hang,
			Crash: sum.Crash, InfraErrors: sum.Errors,
		}, nil
	})
	writeJSON(w, http.StatusAccepted, j.status())
}

// ExperimentJobRequest configures an asynchronous experiment job.
type ExperimentJobRequest struct {
	Name    string `json:"name"`
	Options struct {
		Workloads  []string `json:"workloads"`
		Injections int      `json:"injections"`
		Windows    int      `json:"windows"`
		Seed       int64    `json:"seed"`
		Workers    int      `json:"workers"`
		AVFWindows int      `json:"avf_windows"`
	} `json:"options"`
}

func (s *Server) handleJobExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentJobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding body: %v", mbavf.ErrBadOption, err))
		return
	}
	known := false
	for _, name := range mbavf.Experiments() {
		if name == req.Name {
			known = true
		}
	}
	if !known {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown experiment %q", req.Name)})
		return
	}
	opts := mbavf.ExperimentOptions{
		Workloads:  req.Options.Workloads,
		Injections: req.Options.Injections,
		Windows:    req.Options.Windows,
		Seed:       req.Options.Seed,
		Workers:    req.Options.Workers,
		AVFWindows: req.Options.AVFWindows,
	}
	if err := opts.Validate(); err != nil {
		writeErr(w, err)
		return
	}
	j := s.jobs.submit("experiment", req.Name, 0, func(ctx context.Context, _ *job) (any, error) {
		text, err := mbavf.RunExperimentContext(ctx, req.Name, opts)
		if err != nil {
			return nil, err
		}
		return struct {
			Text string `json:"text"`
		}{text}, nil
	})
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, _ := s.jobs.cancelJob(id)
	if !found {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	j, _ := s.jobs.get(id)
	writeJSON(w, http.StatusOK, j.status())
}

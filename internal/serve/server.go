// Package serve is the MB-AVF analysis service: an HTTP/JSON layer that
// decouples expensive workload simulation from cheap repeated
// vulnerability queries. One simulated Run answers any number of
// (structure, scheme, interleaving, mode) questions, so the server keeps
// a sharded LRU of completed runs with singleflight deduplication — N
// concurrent requests for the same workload trigger exactly one
// simulation — plus a second-level cache of computed AVF/SER results, a
// bounded simulation worker pool, per-request timeouts, asynchronous
// fault-injection and experiment jobs, and graceful drain.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mbavf"
	"mbavf/internal/fabric"
	"mbavf/internal/obs"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/workloads"
)

// Request- and pool-level observability series; /metrics exposes them as
// mbavf_serve_* alongside the simulator's own counters.
var (
	obsRequests   = obs.NewCounter("serve.requests")
	obsResponses5 = obs.NewCounter("serve.errors_5xx")
	obsResponses4 = obs.NewCounter("serve.errors_4xx")
	obsReqNS      = obs.NewHistogram("serve.request_ns")
	obsInflight   = obs.NewGauge("serve.inflight_requests")
	obsSims       = obs.NewCounter("serve.simulations")
	obsSimWaiting = obs.NewGauge("serve.sim_queue_depth")
)

// Fixed service limits.
const (
	// cacheShards is the shard count of both caches.
	cacheShards = 4
	// resultsPerShard bounds the per-query AVF/SER result cache.
	resultsPerShard = 512
	// jobRetention is how many finished jobs stay queryable.
	jobRetention = 64
	// maxBatch bounds the number of queries in one batch request.
	maxBatch = 256
)

// Config tunes the analysis service.
type Config struct {
	// RunsPerShard bounds the heavyweight run cache: each shard keeps at
	// most this many instrumented simulation sessions (default 4).
	RunsPerShard int
	// MaxSims bounds concurrent simulations (default GOMAXPROCS).
	MaxSims int
	// MaxJobs bounds concurrent asynchronous jobs (default 1; campaigns
	// parallelize internally).
	MaxJobs int
	// RequestTimeout bounds one synchronous request, including any
	// simulation it has to wait for (default 5m; jobs are not subject to
	// it).
	RequestTimeout time.Duration
	// Store, when non-nil, is the persistent run-artifact tier below the
	// in-memory run cache: cache miss -> store load (milliseconds) ->
	// simulate and record. A warm store lets a cold process answer
	// queries without simulating at all. Any store.Backend works here —
	// a local directory, or (via -store-url) the artifact server of
	// another mbavf-serve process.
	Store *mbavf.RunStore
	// ServeArtifacts mounts the HTTP artifact protocol (/store/v1/*)
	// over Store's backend, making this process the fleet's shared
	// artifact server: one worker's recorded simulation becomes every
	// worker's store hit. Ignored when Store is nil.
	ServeArtifacts bool
	// FabricWorker mounts the distributed-campaign fabric's worker
	// endpoints (/fabric/v1/*) on this server, so a coordinator can lease
	// shot ranges and AVF batches to it.
	FabricWorker bool
	// FabricPeers, when non-empty, makes this server a fabric
	// coordinator: AVF batch requests and injection jobs are sharded into
	// leases across these worker base URLs (falling back in-process when
	// the fleet is unreachable).
	FabricPeers []string
	// FabricShotDelay throttles every shot this worker executes — a
	// chaos/testing knob for rehearsing straggler and lease-steal
	// scenarios (see scripts/fabric-smoke.sh). Zero in production.
	FabricShotDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.RunsPerShard <= 0 {
		c.RunsPerShard = 4
	}
	if c.MaxSims <= 0 {
		c.MaxSims = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	return c
}

// Server is the analysis service. Build one with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config

	runs    *Cache[*mbavf.Run]
	results *Cache[any]
	jobs    *jobManager

	simSem     chan struct{}
	simWaiting atomic.Int64
	inflight   atomic.Int64

	base     context.Context
	stop     context.CancelCauseFunc
	draining atomic.Bool
	reqWG    sync.WaitGroup

	worker    *fabric.Worker
	coord     *fabric.Coordinator
	artifacts *httpstore.Server

	descriptions map[string]string
}

// New builds a Server. The observability layer is enabled as a side
// effect: a service without metrics is undebuggable.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	obs.Enable()
	base, stop := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		runs:    NewCache[*mbavf.Run]("serve.cache.runs", cacheShards, cfg.RunsPerShard),
		results: NewCache[any]("serve.cache.results", cacheShards, resultsPerShard),
		simSem:  make(chan struct{}, cfg.MaxSims),
		base:    base,
		stop:    stop,

		descriptions: map[string]string{},
	}
	s.jobs = newJobManager(base, cfg.MaxJobs, jobRetention)
	for _, name := range workloads.Names() {
		if d, err := mbavf.WorkloadDescription(name); err == nil {
			s.descriptions[name] = d
		}
	}
	if cfg.FabricWorker {
		s.worker = fabric.NewWorker(fabric.WorkerConfig{
			AVF:       s.evaluateAVF,
			ShotDelay: cfg.FabricShotDelay,
		})
	}
	if cfg.Store != nil && cfg.ServeArtifacts {
		s.artifacts = httpstore.NewServer(cfg.Store.Backend())
	}
	if len(cfg.FabricPeers) > 0 {
		s.coord = fabric.New(fabric.Config{
			Workers:  cfg.FabricPeers,
			LocalAVF: s.evaluateAVF,
		}, nil)
	}
	return s
}

// run returns the instrumented Run of a workload, simulating at most
// once no matter how many requests ask concurrently. The bool reports a
// cache hit. The simulation itself runs under the server's lifecycle
// context — an abandoned request must not kill a result that every
// queued waiter (and future request) will reuse. Callers that know
// which structures they will analyze pass them, so a store-served run
// (possibly fetched section-by-section from a remote artifact server)
// arrives with those sections preloaded and verified.
func (s *Server) run(ctx context.Context, name string, sts ...mbavf.Structure) (*mbavf.Run, bool, error) {
	if _, ok := s.descriptions[name]; !ok {
		return nil, false, fmt.Errorf("%w: %q", errUnknownWorkload, name)
	}
	return s.runs.Get(ctx, name, func() (*mbavf.Run, error) {
		obsSimWaiting.Set(s.simWaiting.Add(1))
		select {
		case s.simSem <- struct{}{}:
		case <-s.base.Done():
			obsSimWaiting.Set(s.simWaiting.Add(-1))
			return nil, context.Cause(s.base)
		}
		obsSimWaiting.Set(s.simWaiting.Add(-1))
		defer func() { <-s.simSem }()
		r, fromStore, err := mbavf.RunWorkloadStoredFor(s.base, name, s.cfg.Store, sts...)
		if err == nil && !fromStore {
			obsSims.Add(1)
		}
		return r, err
	})
}

// errUnknownWorkload marks queries naming a workload the server does not
// have; handlers map it to 404.
var errUnknownWorkload = errors.New("unknown workload")

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: new requests are refused with
// 503 (health checks start failing so load balancers stop routing),
// queued jobs are shed, and in-flight requests and running jobs are
// given until ctx expires to finish. On expiry everything still running
// is cancelled — simulations poll their context, so stragglers unwind
// promptly — and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.jobs.cancelQueued()
	if s.worker != nil {
		defer s.worker.Close()
	}
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		s.jobs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop(errors.New("serve: drained"))
		return nil
	case <-ctx.Done():
		s.stop(fmt.Errorf("serve: drain deadline: %w", ctx.Err()))
		<-done
		return ctx.Err()
	}
}

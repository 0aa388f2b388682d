package mbavf

import (
	"context"

	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/store/disk"
)

// ErrNotInStore marks a RunStore lookup for a workload whose artifact
// has not been recorded; callers fall back to simulation.
var ErrNotInStore = store.ErrNotFound

// RunStore is a persistent, content-addressed collection of run
// artifacts: the "record once, analyze forever" tier. Each artifact is
// keyed by a stable hash of the workload and the machine configuration,
// so analyses served from the store are exactly the analyses a fresh
// simulation would produce — for the price of a millisecond-scale
// decode instead of a full simulation.
//
// The storage itself is pluggable: NewRunStore accepts any
// store.Backend — a local directory (internal/store/disk), the HTTP
// artifact server of another mbavf-serve process
// (internal/store/httpstore, so one recorded artifact warms a whole
// fleet), or an in-memory map for tests (internal/store/mem). Multiple
// processes may share one backend; writes are atomic and damaged
// artifacts quarantine themselves on first read.
type RunStore struct {
	st *store.Store
}

// NewRunStore builds a run store over any artifact-store backend.
func NewRunStore(b store.Backend) *RunStore {
	return &RunStore{st: store.NewStore(b)}
}

// OpenRunStore opens (creating if needed) a run-artifact store rooted at
// the local directory dir. It is the disk-backed constructor for code
// outside this module, which cannot import the internal backend
// packages that NewRunStore takes.
func OpenRunStore(dir string) (*RunStore, error) {
	b, err := disk.New(dir)
	if err != nil {
		return nil, err
	}
	return NewRunStore(b), nil
}

// Dir describes the store's backing location: the root directory of a
// disk store, the base URL of an HTTP store.
func (rs *RunStore) Dir() string { return rs.st.Dir() }

// Backend returns the blob layer this store runs over, so a server can
// mount it behind the HTTP artifact protocol.
func (rs *RunStore) Backend() store.Backend { return rs.st.Backend() }

// Maintain runs the store's background hygiene loop — periodic CRC
// scrubs and size-bounding GC — until ctx is cancelled. It blocks;
// callers run it in a goroutine.
func (rs *RunStore) Maintain(ctx context.Context, cfg store.MaintainConfig) {
	rs.st.Maintain(ctx, cfg)
}

// Key returns the content address of the named workload's artifact
// under the default machine configuration (the one RunWorkload uses).
func (rs *RunStore) Key(workload string) string {
	return store.KeyFor(workload, sim.DefaultConfig())
}

// Has reports whether the workload's artifact is recorded.
func (rs *RunStore) Has(workload string) bool {
	return rs.st.Has(context.Background(), rs.Key(workload))
}

// Load revives the named workload's recorded Run. A missing artifact
// returns ErrNotInStore; a damaged one (any CRC mismatch, or an
// artifact naming another workload) is quarantined and returns an error
// wrapping store.ErrCorrupt or store.ErrFormat. Either way the caller's
// fallback is RunWorkload.
//
// Loading is lazy: over a local backend the artifact's framing and
// checksums are fully verified here, while each section's measurement
// payload decodes on the first analysis that touches it; over a ranged
// backend (HTTP) even the payload bytes transfer on first touch —
// reviving a run costs milliseconds regardless of artifact size, and an
// L1 query never pays to decode (or download) the L2 timeline.
func (rs *RunStore) Load(workload string) (*Run, error) {
	return rs.LoadContext(context.Background(), workload)
}

// LoadContext is Load under a context, which bounds the backend I/O
// (a remote store may be slow or gone).
func (rs *RunStore) LoadContext(ctx context.Context, workload string) (*Run, error) {
	a, err := rs.st.LoadWorkload(ctx, workload)
	if err != nil {
		return nil, err
	}
	return lazyRun(a), nil
}

// lazyRun wraps a loaded artifact in a Run whose trackers and graph
// decode on demand.
func lazyRun(a *store.Artifact) *Run {
	return &Run{m: metaMeasurements(a.Meta()), art: a}
}

// metaMeasurements seeds a lazily backed run's measurements with the
// artifact's metadata; the trackers and graph stay nil and decode from
// the artifact on demand.
func metaMeasurements(meta store.Meta) *sim.Measurements {
	return &sim.Measurements{
		Workload:     meta.Workload,
		ConfigFP:     meta.ConfigFP,
		Cycles:       meta.Cycles,
		Instructions: meta.Instructions,
		L1Sets:       meta.L1Sets,
		L1Ways:       meta.L1Ways,
		L2Sets:       meta.L2Sets,
		L2Ways:       meta.L2Ways,
		LineBytes:    meta.LineBytes,
		VGPRThreads:  meta.VGPRThreads,
		VGPRRegs:     meta.VGPRRegs,
	}
}

// Preload forces the deferred decoding of a store-loaded run for the
// named structures (every structure when none are given), so subsequent
// queries pay analysis cost only. Simulated runs are always fully
// materialized, making Preload a no-op for them. Servers call it to
// move artifact decoding off the query path; benchmarks call it to
// charge the store's full cost to the acquisition phase.
func (r *Run) Preload(sts ...Structure) error {
	if r.art == nil {
		return nil
	}
	if len(sts) == 0 {
		sts = Structures()
	}
	if _, err := r.graph(); err != nil {
		return err
	}
	for _, st := range sts {
		if _, err := r.tracker(st); err != nil {
			return err
		}
	}
	return nil
}

// Save records the run as the named workload's artifact, atomically
// replacing any previous recording.
func (rs *RunStore) Save(workload string, r *Run) error {
	return rs.SaveContext(context.Background(), workload, r)
}

// SaveContext is Save under a context bounding the backend I/O.
func (rs *RunStore) SaveContext(ctx context.Context, workload string, r *Run) error {
	m, err := r.measurements()
	if err != nil {
		return err
	}
	return rs.st.Put(ctx, rs.Key(workload), m)
}

// RunWorkloadStoredFor returns the named workload's Run from the store
// when a valid artifact is recorded, and simulates (then records)
// otherwise. The boolean reports whether the store answered. A nil
// store always simulates. The fallback rule — what is a miss, what is
// damage, what is transient and retried, and when the simulated run is
// recorded — is store.Acquire's, shared with every other caller.
//
// The structures are the ones the caller is about to analyze: a
// store-served Run arrives with those structures preloaded, so a remote
// section that turns out damaged (or a server that vanishes
// mid-download) is discovered here — where the fallback to simulation
// can still handle it — instead of mid-analysis.
func RunWorkloadStoredFor(ctx context.Context, name string, rs *RunStore, sts ...Structure) (*Run, bool, error) {
	var st *store.Store
	if rs != nil {
		st = rs.st
	}
	open := func(a *store.Artifact) (*Run, error) {
		r := lazyRun(a)
		if len(sts) > 0 {
			if err := r.Preload(sts...); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	return store.Acquire(ctx, st, name, open, func(m *sim.Measurements) *Run { return &Run{m: m} })
}

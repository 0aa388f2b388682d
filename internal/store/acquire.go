package store

import (
	"context"
	"errors"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// RetryDelay is the backoff before Acquire's single retry of a load
// that failed transiently; a var so tests don't wait.
var RetryDelay = 50 * time.Millisecond

// obsFallbacks counts loads of a recorded artifact that failed —
// damaged, or transient past the retry — and fell back to a fresh
// simulation. A plain miss is not counted: nothing recorded failed.
var obsFallbacks = obs.NewCounter("store.fallback_simulations")

// Acquire returns the named workload's run under the default machine
// configuration: from s when a valid artifact is recorded, and from a
// fresh simulation otherwise. It is the one store-or-simulate rule;
// every caller that keeps runs in a store acquires them here. The
// boolean reports whether the store answered.
//
// R is what the caller keeps of a run. open turns a loaded,
// identity-checked artifact into one (decoding as much of it as the
// caller wants; its errors are classified like load errors, so a
// section found damaged there still falls back), and wrap turns
// simulated measurements into one.
//
// A load failure splits three ways:
//   - a miss (ErrNotFound): simulate and record;
//   - a damaged artifact (ErrCorrupt or ErrFormat, including one that
//     names another workload), already quarantined by the store:
//     simulate and re-record a good replacement;
//   - anything else is transient (EMFILE, an NFS hiccup, an unreachable
//     artifact server): retry the load once after RetryDelay, and if
//     that fails too, simulate but do NOT record — the recording may be
//     perfectly good, and overwriting it mid-flap would throw away an
//     expensive, valid run.
//
// Recording is best-effort: a store that cannot be written still
// returns the simulated run, since persistence is an accelerator, never
// a correctness dependency. A nil s always simulates.
func Acquire[R any](ctx context.Context, s *Store, workload string,
	open func(*Artifact) (R, error), wrap func(*sim.Measurements) R) (R, bool, error) {
	var zero R
	load := func() (R, error) {
		a, err := s.LoadWorkload(ctx, workload)
		if err != nil {
			return zero, err
		}
		return open(a)
	}
	record := s != nil
	if s != nil {
		r, err := load()
		switch {
		case err == nil:
			return r, true, nil
		case errors.Is(err, ErrNotFound):
		case damaged(err):
			obsFallbacks.Add(1)
		default:
			select {
			case <-time.After(RetryDelay):
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if r, err := load(); err == nil {
				return r, true, nil
			}
			obsFallbacks.Add(1)
			record = false
		}
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return zero, false, err
	}
	sess, err := sim.ExecuteContext(ctx, w, sim.DefaultConfig())
	if err != nil {
		return zero, false, err
	}
	m := sess.Measurements()
	if record {
		_ = s.Put(ctx, KeyFor(workload, sim.DefaultConfig()), m)
	}
	return wrap(m), false, nil
}

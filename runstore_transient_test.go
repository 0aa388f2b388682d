package mbavf

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbavf/internal/store"
)

// transientStore records a vecadd artifact, then replaces it with a
// directory: reads fail with EISDIR, which is neither a miss nor typed
// corruption — exactly the transient-failure shape (NFS hiccup, EMFILE,
// permission flap) RunWorkloadStoredFor must not treat as damage.
func transientStore(t *testing.T) (rs *RunStore, path string, pristine []byte) {
	t.Helper()
	dir := t.TempDir()
	rs, err := OpenRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, fromStore, err := RunWorkloadStoredFor(context.Background(), "vecadd", rs); err != nil || fromStore {
		t.Fatalf("recording run: fromStore=%v err=%v", fromStore, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.mbavf"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 artifact, got %v (%v)", paths, err)
	}
	path = paths[0]
	pristine, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return rs, path, pristine
}

// TestStoreTransientFailureRetries: a store whose artifact becomes
// readable again during the backoff is answered from the store — the
// retry, not a wasteful (and artifact-clobbering) re-simulation.
func TestStoreTransientFailureRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload artifact; skipped in -short")
	}
	rs, path, pristine := transientStore(t)

	defer func(d time.Duration) { store.RetryDelay = d }(store.RetryDelay)
	store.RetryDelay = 500 * time.Millisecond

	// The flap heals while RunWorkloadStoredFor is backing off.
	go func() {
		time.Sleep(100 * time.Millisecond)
		_ = os.Remove(path)
		_ = os.WriteFile(path, pristine, 0o644)
	}()

	r, fromStore, err := RunWorkloadStoredFor(context.Background(), "vecadd", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Fatal("healed store was not answered by the retried Load")
	}
	if r.Workload() != "vecadd" {
		t.Fatalf("retried load revived workload %q", r.Workload())
	}
}

// TestStoreTransientFailureDoesNotClobber: when the flap persists past
// the retry, the fallback simulation answers the caller but must NOT
// overwrite the artifact — the recording may be perfectly good once the
// filesystem recovers.
func TestStoreTransientFailureDoesNotClobber(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload artifact; skipped in -short")
	}
	rs, path, pristine := transientStore(t)

	defer func(d time.Duration) { store.RetryDelay = d }(store.RetryDelay)
	store.RetryDelay = time.Millisecond

	r, fromStore, err := RunWorkloadStoredFor(context.Background(), "vecadd", rs)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("fromStore=true while the artifact was unreadable")
	}
	if r.Workload() != "vecadd" {
		t.Fatalf("fallback simulated workload %q", r.Workload())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() {
		t.Fatal("transient fallback overwrote the artifact path")
	}

	// Once the flap heals, the original recording is still there, intact.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, fromStore, err := RunWorkloadStoredFor(context.Background(), "vecadd", rs); err != nil || !fromStore {
		t.Fatalf("post-flap load: fromStore=%v err=%v", fromStore, err)
	}
}

// TestStoreTransientFailureHonorsContext: cancelling the context during
// the retry backoff returns promptly with the context error.
func TestStoreTransientFailureHonorsContext(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload artifact; skipped in -short")
	}
	rs, _, _ := transientStore(t)

	defer func(d time.Duration) { store.RetryDelay = d }(store.RetryDelay)
	store.RetryDelay = time.Hour

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := RunWorkloadStoredFor(ctx, "vecadd", rs)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled retry returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled retry did not return")
	}
}

package experiments

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/store/mem"
)

// TestTransientStoreDoesNotRecord runs an experiment against a shared
// artifact store that holds a good recording but answers every read
// with 503. The experiment must still complete from a fresh simulation,
// count the fallback, and leave the recording alone: a transient
// failure says nothing about the artifact, so it is never written over.
func TestTransientStoreDoesNotRecord(t *testing.T) {
	const name = "vecadd"
	ResetCache(name)
	defer ResetCache(name)
	m, err := run(Options{}, name)
	if err != nil {
		t.Fatal(err)
	}
	ResetCache(name)

	b := mem.New()
	if err := store.NewStore(b).Put(context.Background(), store.KeyFor(name, sim.DefaultConfig()), m); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	httpstore.NewServer(b).Mount(mux)
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			http.Error(w, "store temporarily unavailable", http.StatusServiceUnavailable)
			return
		case http.MethodPut:
			puts.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	obs.Enable()
	defer obs.Disable()
	fallbacks := obs.NewCounter("store.fallback_simulations")
	before := fallbacks.Value()

	o := DefaultOptions()
	o.Workloads = []string{name}
	o.StoreDir = srv.URL
	e, err := ByName("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(o); err != nil {
		t.Fatal(err)
	}
	if n := puts.Load(); n != 0 {
		t.Errorf("experiment made %d Puts over a store whose reads failed transiently, want 0", n)
	}
	if fallbacks.Value() == before {
		t.Error("store.fallback_simulations did not grow on the transient fallback")
	}
}

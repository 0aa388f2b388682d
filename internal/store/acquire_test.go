package store

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store/backend"
	"mbavf/internal/store/mem"
)

// countingBackend is an in-memory backend that counts Puts and fails
// the next failReads reads with an untyped error — the shape of an
// EMFILE, an NFS hiccup or an artifact server answering 503.
type countingBackend struct {
	*mem.Backend
	puts      atomic.Int64
	failReads atomic.Int64
}

var errFlap = errors.New("store test: transient read failure")

func (c *countingBackend) flap() error {
	if c.failReads.Add(-1) >= 0 {
		return errFlap
	}
	c.failReads.Store(0)
	return nil
}

func (c *countingBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := c.flap(); err != nil {
		return nil, err
	}
	return c.Backend.Get(ctx, key)
}

func (c *countingBackend) Stat(ctx context.Context, key string) (backend.KeyInfo, error) {
	if err := c.flap(); err != nil {
		return backend.KeyInfo{}, err
	}
	return c.Backend.Stat(ctx, key)
}

func (c *countingBackend) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := c.flap(); err != nil {
		return nil, err
	}
	return c.Backend.ReadSection(ctx, key, off, n)
}

func (c *countingBackend) Put(ctx context.Context, key string, data []byte) error {
	c.puts.Add(1)
	return c.Backend.Put(ctx, key, data)
}

// TestAcquireFallbackRule pins the one store-or-simulate rule over both
// load paths (whole blob and ranged). Each case seeds the store, then
// checks whether the store answered, whether Acquire simulated, how many
// Puts it made, and whether it counted a fallback. Puts are counted, not
// bytes compared: the encoding is deterministic, so a re-simulated
// overwrite is byte-identical to the recording it clobbers.
func TestAcquireFallbackRule(t *testing.T) {
	m := testMeasurements(t)
	good := encoded(t)
	key := KeyFor(m.Workload, sim.DefaultConfig())

	crcDamaged := append([]byte(nil), good...)
	crcDamaged[len(crcDamaged)/2] ^= 0x01
	if _, err := Decode(crcDamaged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-artifact flip decodes with %v, want ErrCorrupt", err)
	}
	formatDamaged := append([]byte(nil), good...)
	formatDamaged[0] ^= 0xff
	if _, err := Decode(formatDamaged); !errors.Is(err, ErrFormat) {
		t.Fatalf("magic flip decodes with %v, want ErrFormat", err)
	}
	impostor := *m
	impostor.Workload = "prefixsum"
	planted, err := EncodedBytes(&impostor)
	if err != nil {
		t.Fatal(err)
	}

	defer func(d time.Duration) { RetryDelay = d }(RetryDelay)
	RetryDelay = time.Millisecond
	obs.Enable()
	defer obs.Disable()
	fallbacks := obs.NewCounter("store.fallback_simulations")

	cases := []struct {
		name      string
		stored    []byte // nil: nothing recorded
		failReads int64
		fromStore bool
		simulated bool
		puts      int64
		fallback  uint64
	}{
		{"miss", nil, 0, false, true, 1, 0},
		{"crc-damaged", crcDamaged, 0, false, true, 1, 1},
		{"format-damaged", formatDamaged, 0, false, true, 1, 1},
		{"identity-mismatch", planted, 0, false, true, 1, 1},
		{"transient-then-heals", good, 1, true, false, 0, 0},
		{"transient-persistent", good, 1 << 30, false, true, 0, 1},
	}
	for _, newMem := range []func() *mem.Backend{mem.New, mem.NewRanged} {
		for _, tc := range cases {
			b := &countingBackend{Backend: newMem()}
			t.Run(tc.name+"/ranged="+map[bool]string{false: "no", true: "yes"}[b.Ranged()], func(t *testing.T) {
				ctx := context.Background()
				if tc.stored != nil {
					if err := b.Backend.Put(ctx, key, tc.stored); err != nil {
						t.Fatal(err)
					}
				}
				st := NewStore(b)
				b.failReads.Store(tc.failReads)
				before := fallbacks.Value()
				simulated := false
				got, fromStore, err := Acquire(ctx, st, m.Workload, (*Artifact).Measurements,
					func(m *sim.Measurements) *sim.Measurements { simulated = true; return m })
				if err != nil {
					t.Fatal(err)
				}
				if got.Workload != m.Workload || got.Cycles != m.Cycles {
					t.Errorf("acquired %s (%d cycles), want %s (%d cycles)", got.Workload, got.Cycles, m.Workload, m.Cycles)
				}
				if fromStore != tc.fromStore || simulated != tc.simulated {
					t.Errorf("fromStore=%v simulated=%v, want %v/%v", fromStore, simulated, tc.fromStore, tc.simulated)
				}
				if n := b.puts.Load(); n != tc.puts {
					t.Errorf("backend Puts = %d, want %d", n, tc.puts)
				}
				if d := fallbacks.Value() - before; d != tc.fallback {
					t.Errorf("store.fallback_simulations grew by %d, want %d", d, tc.fallback)
				}
				// Once reads work, every case leaves a good recording behind:
				// a re-recorded replacement, or the original one untouched.
				b.failReads.Store(0)
				if _, fromStore, err := Acquire(ctx, st, m.Workload, (*Artifact).Measurements,
					func(m *sim.Measurements) *sim.Measurements { return m }); err != nil || !fromStore {
					t.Errorf("follow-up acquire: fromStore=%v err=%v", fromStore, err)
				}
			})
		}
	}
}

// TestAcquireNilStoreSimulates: without a store there is nothing to
// load or record; Acquire is a plain simulation.
func TestAcquireNilStoreSimulates(t *testing.T) {
	got, fromStore, err := Acquire(context.Background(), nil, "vecadd",
		func(*Artifact) (*sim.Measurements, error) {
			t.Fatal("opened an artifact without a store")
			return nil, nil
		},
		func(m *sim.Measurements) *sim.Measurements { return m })
	if err != nil || fromStore || got.Workload != "vecadd" {
		t.Fatalf("got %v fromStore=%v err=%v", got, fromStore, err)
	}
}

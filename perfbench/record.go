package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/store/disk"
)

// recordDigests is the simulator oracle: the sha256 of each program's
// MBAV artifact (the bytes store.EncodedBytes produces, which the disk
// backend writes verbatim). Simulation is deterministic, so any change
// meant only to make recording faster leaves every digest unchanged.
//
//go:embed golden/record.json
var recordDigestsJSON []byte

func loadDigests(data []byte) (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	return m, nil
}

// openStore opens a run store over a fresh disk directory.
func (b *bench) openStore(name string) (*mbavf.RunStore, error) {
	dir, err := b.freshDir(name)
	if err != nil {
		return nil, err
	}
	be, err := disk.New(dir)
	if err != nil {
		return nil, err
	}
	return mbavf.NewRunStore(be), nil
}

func allocStats() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// recordPrograms simulates each program in order and records its
// artifact into rs — the path `mbavf-store record` takes — and returns
// the wall time of each program. A traced run also samples the
// simulator's and the store's per-layer metrics for the whole set.
func (b *bench) recordPrograms(ctx context.Context, rs *mbavf.RunStore, programs []string, req string) ([]float64, error) {
	var (
		lat                       []float64
		simT, putT                time.Duration
		allocB, allocN, artifactB uint64
		instrs, cycles            uint64
		c0                        map[string]uint64
	)
	if b.tr.on {
		c0 = obs.Counters()
	}
	for _, p := range programs {
		start := time.Now()
		b0, n0 := allocStats()
		var run *mbavf.Run
		err := b.tr.do(ctx, "sim.simulate", req+"/"+p, func(ctx context.Context) error {
			var err error
			run, err = mbavf.RunWorkloadContext(ctx, p)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", p, err)
		}
		b1, n1 := allocStats()
		simmed := time.Now()
		if err := b.tr.do(ctx, "store.put", req+"/"+p, func(ctx context.Context) error {
			return rs.SaveContext(ctx, p, run)
		}); err != nil {
			return nil, fmt.Errorf("recording %s: %w", p, err)
		}
		end := time.Now()
		lat = append(lat, ms(end.Sub(start)))
		simT += simmed.Sub(start)
		putT += end.Sub(simmed)
		allocB += b1 - b0
		allocN += n1 - n0
		instrs += run.Instructions()
		cycles += run.Cycles()
		if b.tr.on {
			info, err := rs.Backend().Stat(ctx, rs.Key(p))
			if err != nil {
				return nil, err
			}
			artifactB += uint64(info.Bytes)
		}
	}
	if b.tr.on {
		c1 := obs.Counters()
		b.sample("sim.simulate_ms", ms(simT))
		b.sample("store.put_ms", ms(putT))
		b.sample("sim.alloc_mb", float64(allocB)/1e6)
		b.sample("sim.allocs", float64(allocN))
		b.sample("sim.instructions", float64(instrs))
		b.sample("sim.cycles", float64(cycles))
		b.sample("store.artifact_mb", float64(artifactB)/1e6)
		b.sample("cache.l1_hits", counterDelta(c0, c1, "cache.l1.hits"))
		b.sample("cache.l1_misses", counterDelta(c0, c1, "cache.l1.misses"))
		b.sample("cache.l2_hits", counterDelta(c0, c1, "cache.l2.hits"))
		b.sample("cache.l2_misses", counterDelta(c0, c1, "cache.l2.misses"))
	}
	return lat, nil
}

// checkDigests compares each recorded artifact with the oracle and
// returns the programs whose bytes differ.
func checkDigests(ctx context.Context, rs *mbavf.RunStore, programs []string, want map[string]string) (bad []string, got map[string]string, err error) {
	got = map[string]string{}
	for _, p := range programs {
		data, err := rs.Backend().Get(ctx, rs.Key(p))
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s back: %w", p, err)
		}
		sum := sha256.Sum256(data)
		got[p] = hex.EncodeToString(sum[:])
		if got[p] != want[p] {
			bad = append(bad, p)
		}
	}
	return bad, got, nil
}

// runRecord is the record workload: one caller records all 18 programs,
// in a fixed order, into a fresh disk store per pass. It is the only
// workload whose measured time is simulation and the store's write path;
// analysis, decoding and HTTP do no work here.
func runRecord(ctx context.Context, b *bench) error {
	want, err := loadDigests(recordDigestsJSON)
	if err != nil {
		return err
	}
	programs := mbavf.Workloads()
	// Set-up: a fresh store and one recording of minife, the repository's
	// reference program, so the first pass does not pay for first use of
	// the code and heap.
	if err := b.setupRepeated(ctx, func(ctx context.Context, rep int) error {
		rs, err := b.openStore(fmt.Sprintf("setup-%d", rep))
		if err != nil {
			return err
		}
		run, err := mbavf.RunWorkloadContext(ctx, "minife")
		if err != nil {
			return err
		}
		return rs.SaveContext(ctx, "minife", run)
	}); err != nil {
		return err
	}
	return b.passes(ctx, 2, func(ctx context.Context, i int) error {
		rs, err := b.openStore("pass")
		if err != nil {
			return err
		}
		var lat []float64
		err = b.measure(ctx, func(ctx context.Context) (int, error) {
			lat, err = b.recordPrograms(ctx, rs, programs, fmt.Sprintf("pass%d", i))
			return len(lat), err
		})
		b.attempted += len(programs)
		if err != nil {
			b.fail(len(programs), "record pass %d: %v", i, err)
			return nil
		}
		b.timedOps(lat)
		var bad []string
		var got map[string]string
		if err := b.tr.do(ctx, "verify", "", func(ctx context.Context) error {
			bad, got, err = checkDigests(ctx, rs, programs, want)
			return err
		}); err != nil {
			return err
		}
		if len(bad) > 0 {
			b.fail(len(bad), "record pass %d: artifact digests differ from golden/record.json for %v", i, bad)
		}
		if i == 0 {
			for _, p := range programs {
				status := "ok"
				if got[p] != want[p] {
					status = "MISMATCH"
				}
				b.notef("digest %-18s %s %s", p, got[p], status)
			}
		}
		return nil
	})
}

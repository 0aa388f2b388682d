package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	id, parent int
	name       string
	lane       int    // 0 is the driving goroutine; serve clients use 1 and 2
	req        string // request id shared by the spans of one operation
	start, end time.Duration
}

// tracer records spans in memory and, per profiled phase, a CPU profile
// whose samples carry the innermost span's name as the "layer" label. A
// disabled tracer calls straight through, so the untraced run measures
// the program without any of this.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
	prof  map[string]*profileStats // by phase
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), prof: map[string]*profileStats{}}
}

type ctxKey int

const (
	keySpan ctxKey = iota
	keyLane
)

func withLane(ctx context.Context, lane int) context.Context {
	return context.WithValue(ctx, keyLane, lane)
}

// do runs fn inside a span named after the layer it calls into.
func (t *tracer) do(ctx context.Context, name, req string, fn func(context.Context) error) error {
	if !t.on {
		return fn(ctx)
	}
	parent, _ := ctx.Value(keySpan).(int)
	lane, _ := ctx.Value(keyLane).(int)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, req: req, start: time.Since(t.origin)})
	t.mu.Unlock()
	var err error
	pprof.Do(context.WithValue(ctx, keySpan, id), pprof.Labels("layer", name), func(ctx context.Context) {
		err = fn(ctx)
	})
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
	return err
}

// profile runs fn as a span under a CPU profile whose samples are merged
// into the named phase's statistics. Phases must not nest: the runtime
// keeps one CPU profile per process.
func (t *tracer) profile(ctx context.Context, phase string, fn func(context.Context) error) error {
	if !t.on {
		return fn(ctx)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := t.do(ctx, phase, "", fn)
	pprof.StopCPUProfile()
	ps, perr := parseProfile(buf.Bytes())
	if perr != nil {
		return fmt.Errorf("reading CPU profile: %w", perr)
	}
	t.mu.Lock()
	if t.prof[phase] == nil {
		t.prof[phase] = newProfileStats()
	}
	t.prof[phase].merge(ps)
	t.mu.Unlock()
	return err
}

// phaseProfile returns the merged profile of a phase (empty if the phase
// never ran under a profile).
func (t *tracer) phaseProfile(phase string) *profileStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.prof[phase]; p != nil {
		return p
	}
	return newProfileStats()
}

// attribute divides the wall time covered by the spans among them: at
// every instant the time goes to the innermost open spans, split evenly
// when several run at once (the two serve clients). The result therefore
// sums exactly to the wall time of the root spans, with each span's share
// being its self time — its duration minus the part its children cover —
// scaled down where it overlapped other work. It is keyed by span name.
func attribute(spans []span) map[string]time.Duration {
	type event struct {
		at    time.Duration
		start bool
		idx   int
	}
	index := map[int]int{} // span id -> position in spans
	for i, s := range spans {
		index[s.id] = i
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		events = append(events, event{s.start, true, i}, event{s.end, false, i})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].start && events[b].start // close before open at a tie
	})
	openChildren := make([]int, len(spans))
	open := make([]bool, len(spans))
	leaves := map[int]bool{}
	out := map[string]time.Duration{}
	var last time.Duration
	for _, e := range events {
		if dt := e.at - last; dt > 0 && len(leaves) > 0 {
			share := dt / time.Duration(len(leaves))
			for i := range leaves {
				out[spans[i].name] += share
			}
		}
		last = e.at
		p, hasParent := index[spans[e.idx].parent]
		hasParent = hasParent && open[p]
		if e.start {
			open[e.idx] = true
			leaves[e.idx] = true
			if hasParent {
				if openChildren[p] == 0 {
					delete(leaves, p)
				}
				openChildren[p]++
			}
			continue
		}
		open[e.idx] = false
		delete(leaves, e.idx)
		if hasParent {
			openChildren[p]--
			if openChildren[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event complete events
// (load the file in chrome://tracing or Perfetto).
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.req != "" {
			args["request"] = s.req
		}
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane, Args: args,
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

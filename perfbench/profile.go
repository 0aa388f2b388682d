package main

// A reader for the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, profile.proto), reduced to what the layer accounting
// needs: each sample's CPU time, its "layer" label, and its stack of
// function names. The simulator's layers (GPU interpreter, caches,
// lifetime tracker, dataflow graph, memory) run fused inside one call, so
// spans cannot separate them; self time by package can.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileStats aggregates CPU nanoseconds by layer label.
type profileStats struct {
	byLayer map[string]*layerStats
}

type layerStats struct {
	total  int64
	leaf   map[string]int64 // by package of the innermost frame
	inside map[string]int64 // by function anywhere on the stack, counted once per sample
}

func newProfileStats() *profileStats { return &profileStats{byLayer: map[string]*layerStats{}} }

func (p *profileStats) layer(name string) *layerStats {
	l := p.byLayer[name]
	if l == nil {
		l = &layerStats{leaf: map[string]int64{}, inside: map[string]int64{}}
		p.byLayer[name] = l
	}
	return l
}

func (p *profileStats) merge(o *profileStats) {
	for name, ol := range o.byLayer {
		l := p.layer(name)
		l.total += ol.total
		for k, v := range ol.leaf {
			l.leaf[k] += v
		}
		for k, v := range ol.inside {
			l.inside[k] += v
		}
	}
}

// layersExcept lists the profile's layers other than the named ones.
func (p *profileStats) layersExcept(names ...string) []string {
	var out []string
	for name := range p.byLayer {
		if !contains(names, name) {
			out = append(out, name)
		}
	}
	return out
}

// leafShare is the share of the CPU time of the given layers whose
// innermost frame is in one of the packages.
func (p *profileStats) leafShare(layers []string, pkgs ...string) float64 {
	var num, den int64
	for name, l := range p.byLayer {
		if !contains(layers, name) {
			continue
		}
		den += l.total
		for _, pkg := range pkgs {
			num += l.leaf[pkg]
		}
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// insideShare is the share of a layer's CPU time spent under fn.
func (p *profileStats) insideShare(layer, fn string) float64 {
	l := p.byLayer[layer]
	if l == nil || l.total == 0 {
		return 0
	}
	return float64(l.inside[fn]) / float64(l.total)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "mbavf/internal/gpu.(*Machine).step" or "encoding/json.Marshal".
func funcPackage(fn string) string {
	// Drop type arguments, which may themselves contain package paths.
	for {
		i := strings.IndexByte(fn, '[')
		if i < 0 {
			break
		}
		depth, j := 0, i
		for ; j < len(fn); j++ {
			if fn[j] == '[' {
				depth++
			} else if fn[j] == ']' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if j >= len(fn) {
			fn = fn[:i]
			break
		}
		fn = fn[:i] + fn[j+1:]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pb is a cursor over one protocol-buffer message.
type pb struct{ b []byte }

var errPB = errors.New("malformed profile")

func (m *pb) varint() (uint64, error) {
	v, n := binary.Uvarint(m.b)
	if n <= 0 {
		return 0, errPB
	}
	m.b = m.b[n:]
	return v, nil
}

// next returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (m *pb) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := m.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = m.varint()
	case 1:
		if len(m.b) < 8 {
			return 0, 0, 0, nil, errPB
		}
		v, m.b = binary.LittleEndian.Uint64(m.b), m.b[8:]
	case 2:
		var n uint64
		if n, err = m.varint(); err == nil {
			if n > uint64(len(m.b)) {
				return 0, 0, 0, nil, errPB
			}
			payload, m.b = m.b[:n], m.b[n:]
		}
	case 5:
		if len(m.b) < 4 {
			return 0, 0, 0, nil, errPB
		}
		v, m.b = uint64(binary.LittleEndian.Uint32(m.b)), m.b[4:]
	default:
		return 0, 0, 0, nil, fmt.Errorf("%w: wire type %d", errPB, wire)
	}
	return field, wire, v, payload, err
}

// ints decodes a repeated integer field in either packed or plain form.
func ints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	m := pb{payload}
	for len(m.b) > 0 {
		x, err := m.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile reads a gzip-compressed pprof CPU profile.
func parseProfile(gz []byte) (*profileStats, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str as string-table indexes
	}
	var (
		samples   []sample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name index
		types     int
	)
	m := pb{raw}
	for len(m.b) > 0 {
		field, _, _, payload, err := m.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			types++
		case 2: // sample
			var s sample
			sub := pb{payload}
			for len(sub.b) > 0 {
				f, w, x, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = ints(s.locs, w, x, p)
				case 2:
					s.values, err = ints(s.values, w, x, p)
				case 3:
					lab := pb{p}
					var kv [2]uint64
					for len(lab.b) > 0 {
						lf, _, lx, _, lerr := lab.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = lx
						}
					}
					s.labels = append(s.labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			sub := pb{payload}
			for len(sub.b) > 0 {
				f, _, x, p, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 4: // line: {function_id, line}
					line := pb{p}
					for len(line.b) > 0 {
						lf, _, lx, _, lerr := line.next()
						if lerr != nil {
							return nil, lerr
						}
						if lf == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: {id, name, ...}
			var id, name uint64
			sub := pb{payload}
			for len(sub.b) > 0 {
				f, _, x, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(payload))
		}
	}
	// A CPU profile's sample types are (samples/count, cpu/nanoseconds).
	if types != 2 {
		return nil, fmt.Errorf("%w: %d sample types, want 2", errPB, types)
	}
	const cpuIndex = 1
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	ps := newProfileStats()
	for _, s := range samples {
		if len(s.values) <= cpuIndex {
			return nil, fmt.Errorf("%w: sample with %d values", errPB, len(s.values))
		}
		ns := int64(s.values[cpuIndex])
		layer := ""
		for _, kv := range s.labels {
			if str(kv[0]) == "layer" {
				layer = str(kv[1])
			}
		}
		l := ps.layer(layer)
		l.total += ns
		seen := map[string]bool{}
		for i, loc := range s.locs {
			for j, fid := range locFuncs[loc] {
				name := str(funcNames[fid])
				if i == 0 && j == 0 {
					l.leaf[funcPackage(name)] += ns
				}
				if !seen[name] {
					seen[name] = true
					l.inside[name] += ns
				}
			}
		}
	}
	return ps, nil
}

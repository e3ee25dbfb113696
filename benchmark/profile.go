package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// layers are the repository modules the traced run attributes CPU self
// time to, keyed by import path below the module root. "runtime" (the Go
// allocator, GC and scheduler) is matched separately; everything else —
// the standard library, isa/asm/workloads/stats and this benchmark —
// folds into "unattributed".
var layers = []struct{ name, pkg string }{
	{"experiments", "internal/experiments"},
	{"sweep", "internal/sweep"},
	{"sim", "internal/sim"},
	{"interp", "internal/interp"},
	{"cpu", "internal/cpu"},
	{"regfile", "internal/cpu/regfile"},
	{"vrmu", "internal/vrmu"},
	{"mem", "internal/mem"},
	{"cache", "internal/mem/cache"},
	{"dram", "internal/mem/dram"},
	{"xbar", "internal/mem/xbar"},
	{"harden", "internal/harden"},
	{"telemetry", "internal/telemetry"},
	{"difftest", "internal/difftest"},
	{"farm", "internal/farm"},
	{"runtime", ""},
}

const modulePath = "github.com/virec/virec/"

// layerOf maps a Go package path to its layer name.
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	rel, ok := strings.CutPrefix(pkg, modulePath)
	if !ok {
		return "unattributed"
	}
	for _, l := range layers {
		if l.pkg != "" && rel == l.pkg {
			return l.name
		}
	}
	return "unattributed"
}

// packageOf extracts the package path from a symbol name such as
// "github.com/virec/virec/internal/cpu.(*Core).Tick" or
// "github.com/virec/virec/internal/sweep.MapCtx[...].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic shape arguments may themselves hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// foldProfile reads a gzipped CPU profile as runtime/pprof writes it and
// returns the share of sampled CPU time whose leaf frame (the innermost
// inlined function) lies in each layer. The shares sum to 1 over the
// layers plus "unattributed"; with no samples every share is 0.
func foldProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		name := p.strings[p.funcName[p.locLeaf[s.locs[0]]]]
		byLayer[layerOf(packageOf(name))] += v
		total += v
	}
	out := map[string]float64{"unattributed": 0}
	for _, l := range layers {
		out[l.name] = 0
	}
	if total == 0 {
		return out, len(p.samples), nil
	}
	for name, v := range byLayer {
		out[name] = float64(v) / float64(total)
	}
	return out, len(p.samples), nil
}

// profile holds the parts of profile.proto the fold needs.
type profile struct {
	samples  []sample
	locLeaf  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf-encoded profile (field numbers from
// github.com/google/pprof/proto/profile.proto).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					for _, u := range appendVarints(nil, wire, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			seenLine := false
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("cpu profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field in either encoding:
// one unpacked varint, or a packed run of them.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the field
// number, wire type, and the varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = varint(b); n <= 0 {
				return fmt.Errorf("cpu profile: bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: bad length in field %d", num)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and the bytes
// consumed (0 on truncated input).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

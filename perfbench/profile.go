package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// protocol buffers, profile.proto) with a minimal decoder, so the
// benchmark needs nothing outside the standard library, and charges each
// sample to a layer of the program.

// profStack is one distinct call stack of a profile: function names,
// innermost first (inlined frames expanded), and the CPU time sampled
// in it.
type profStack struct {
	funcs []string
	ns    int64
}

const internalPrefix = "cellbricks/internal/"

// Attribution buckets for samples with no program frame.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

// attributeStack names the layer a sample is charged to: the package of
// the innermost cellbricks/internal/<pkg> frame, so crypto lands in pki
// rather than in the package that called it. A stack with no such frame
// is garbage collection when it runs in the collector's own goroutines
// or assists, and other otherwise.
func attributeStack(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
			return bucketGC
		}
	}
	return bucketOther
}

// attribute sums sampled CPU nanoseconds per layer. The values always add
// up to the profile's total.
func attribute(stacks []profStack) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range stacks {
		out[attributeStack(s.funcs)] += s.ns
	}
	return out
}

// parseCPUProfile decodes a (possibly gzipped) pprof CPU profile into its
// stacks, weighted by the "cpu" sample value in nanoseconds.
func parseCPUProfile(data []byte) ([]profStack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as string-table index
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]int64{}    // function id -> name string index
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			types = append(types, typ)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					return appendVarints(&s.values, wt, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				funcs = append(funcs, str(functions[fn]))
			}
		}
		out = append(out, profStack{funcs: funcs, ns: int64(s.values[cpu])})
	}
	return out, nil
}

type rawSample struct{ locs, values []uint64 }

// appendVarints adds a repeated varint field, packed or not, to dst.
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b. Fixed-width fields are
// skipped; profile.proto uses none that matter here.
func eachField(msg []byte, f func(num, wt int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := f(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

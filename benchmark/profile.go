package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuMetrics are the per-layer CPU shares read from the traced slots'
// CPU profiles, in BENCHMARK.json's order.
var cpuMetrics = []string{
	"cpu.network", "cpu.transducer", "cpu.plan", "cpu.fo", "cpu.datalog",
	"cpu.channel", "cpu.dist", "cpu.calm", "cpu.fact.intern",
	"cpu.fact.columnar", "cpu.fact.relation", "cpu.gc", "cpu.other",
}

// layerOf names the cpu.* metric a sample's stack is charged to. The
// innermost frame of a declnet/internal package decides, so runtime
// work done on a layer's behalf (allocation, assist GC) is charged to
// that layer; package fact is split by source file into the interning
// dictionary, the columnar batch kernel and the rest. Stacks without
// such a frame are background GC (cpu.gc) or everything else.
func layerOf(frames []frame) string {
	gc := false
	for _, f := range frames {
		pkg, ok := strings.CutPrefix(f.fn, "declnet/internal/")
		if !ok {
			gc = gc || strings.HasPrefix(f.fn, "runtime.gc") || f.fn == "runtime.bgsweep" || f.fn == "runtime.bgscavenge"
			continue
		}
		pkg, _, _ = strings.Cut(pkg, ".")
		switch pkg {
		case "network", "transducer", "plan", "fo", "datalog", "channel", "dist", "calm":
			return "cpu." + pkg
		case "fact":
			switch path.Base(f.file) {
			case "intern.go":
				return "cpu.fact.intern"
			case "batch.go", "column.go", "sink.go":
				return "cpu.fact.columnar"
			}
			return "cpu.fact.relation"
		}
		return "cpu.other"
	}
	if gc {
		return "cpu.gc"
	}
	return "cpu.other"
}

// frame is one function of a sampled stack.
type frame struct{ fn, file string }

// cpuByLayer decodes a gzipped pprof CPU profile and returns the
// sampled CPU nanoseconds per cpu.* metric.
func cpuByLayer(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		var stack []frame
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				fn := p.functions[fid]
				stack = append(stack, frame{p.str(fn.name), p.str(fn.file)})
			}
		}
		out[layerOf(stack)] += float64(s.values[p.valueIndex])
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) the CPU
// attribution reads: samples with their location IDs and values,
// locations with their (inlined) function IDs, functions, the string
// table, and the sample types.
type profile struct {
	samples    []sample
	locations  map[uint64][]uint64 // location ID → function IDs, innermost first
	functions  map[uint64]function
	strings    []string
	valueIndex int // index of the cpu/nanoseconds value
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	var sampleTypes [][]byte
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, msg)
		case 2: // sample
			var s sample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, sub)
				case 2:
					for _, x := range appendVarints(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn function
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ int64
		_ = eachField(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		})
		if p.str(typ) == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls f for every field of a protobuf message: v holds a
// varint or fixed-width value, msg the bytes of a length-delimited
// field.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := f(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value,
// or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

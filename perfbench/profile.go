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

// This file folds a runtime/pprof CPU profile into self time per simulator
// layer. It decodes the profile's protobuf encoding directly (the standard
// library has no public decoder), reading only the fields the fold needs:
// samples, locations, functions and the string table.

// Layer rows of the split. Every qma/internal package named here is its own
// row; any other package of the module, the harness and runtime work with no
// simulator caller (scheduler, profiler) fold into "other", and background
// garbage collection with no simulator caller into "gc". The rows therefore
// sum to every sampled CPU second.
var layerRows = []string{
	"core", "qlearn", "mac", "radio", "sim", "dsme", "csma", "scenario",
	"traffic", "frame", "stats", "superframe", "gc", "other",
}

// gcRoots are runtime functions that start garbage-collector work on a
// goroutine of its own.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// foldProfile decodes a gzipped CPU profile and returns the sampled CPU
// seconds per layer row. Runtime and standard-library frames are charged to
// the nearest caller of the module on the stack.
func foldProfile(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make(map[string]float64, len(layerRows))
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile sample is missing its cpu value")
		}
		out[p.layerOf(s.locs)] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// layerOf walks one stack from the leaf to the root and names the row the
// sample is charged to.
func (p *profileData) layerOf(locs []uint64) string {
	gc := false
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			name := p.functions[fid]
			if pkg, ok := strings.CutPrefix(name, "qma/internal/"); ok {
				if i := strings.IndexByte(pkg, '.'); i >= 0 {
					pkg = pkg[:i]
				}
				for _, row := range layerRows {
					if row == pkg {
						return row
					}
				}
				return "other"
			}
			if strings.HasPrefix(name, "qma.") || strings.HasPrefix(name, "qma/") || strings.HasPrefix(name, "main.") {
				return "other"
			}
			for _, root := range gcRoots {
				if name == root {
					gc = true
				}
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// profileData is the decoded subset of a profile.proto message.
type profileData struct {
	sampleTypes []int64 // string-table index of each sample type's name
	samples     []profileSample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]string   // function id -> name
	strings     []string
	funcNames   map[uint64]int64 // function id -> string index, resolved after decoding
}

type profileSample struct {
	locs   []uint64
	values []int64
}

func (p *profileData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{
		locations: map[uint64][]uint64{},
		functions: map[uint64]string{},
		funcNames: map[uint64]int64{},
	}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s profileSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
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
			p.locations[id] = fns
			return err
		case 5: // function: {id=1, name=2}
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
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, s := range p.funcNames {
		p.functions[id] = p.str(s)
	}
	return p, nil
}

// appendPacked appends a repeated varint field in either encoding: packed
// (one length-delimited run) or one varint per occurrence.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the top-level fields of one protobuf message, handing fn
// the field number, the wire type and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

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

// CPU attribution. A Go CPU profile is a gzipped profile.proto message;
// this file decodes the few fields attribution needs (samples, locations,
// functions, strings) with the standard library and charges each sample
// to a layer.

// layers are the repository modules CPU is charged to, in print order;
// runtime.gc and runtime.other take samples with no repository frame.
var layers = []string{"apps", "liblinux", "pal", "seccomp", "monitor", "host", "ipc", "metrics", "bench"}

// gcFrames mark a sample with no repository frame as garbage collection.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcMarkDone":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
	"runtime.gcDrain":        true,
}

// layerOf maps a function to its layer: the repository package it is in,
// the benchmark itself for package main (and for internal/bench, whose
// boot code the benchmark calls), or "" for everything else. The
// api package only declares types and errnos, so its frames are passed
// over like those of the standard library.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "graphene/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// attribute charges every sample's CPU time to the nearest frame, walking
// up from the leaf, that lies in a layer. It returns samples by layer.
func attribute(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if p.countIdx >= len(s.values) {
			continue
		}
		layer, gc := "", false
	walk:
		for _, locID := range s.locs {
			for _, fnID := range p.locs[locID] {
				name := p.funcs[fnID]
				if l := layerOf(name); l != "" {
					layer = l
					break walk
				}
				if gcFrames[name] {
					gc = true
				}
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "runtime.gc"
		default:
			layer = "runtime.other"
		}
		out[layer] += float64(s.values[p.countIdx])
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location → function IDs, leaf (innermost inline) first
	funcs   map[uint64]string   // function → name
	// countIdx is the index of the samples/count value. The profile's
	// cpu/nanoseconds value assumes the default rate, which the traced
	// run raises.
	countIdx int
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]string), countIdx: -1}
	var (
		strs       []string
		types      [][2]int64 // sample_type (type, unit) string indexes
		funcNameAt = make(map[uint64]int64)
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachPacked(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNameAt[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for id, at := range funcNameAt {
		p.funcs[id] = str(at)
	}
	for i, t := range types {
		if str(t[0]) == "samples" && str(t[1]) == "count" {
			p.countIdx = i
		}
	}
	if p.countIdx < 0 {
		return nil, errors.New("profile: no samples/count sample type")

	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none that matter here.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachPacked yields a repeated varint field in either encoding: one value
// (b == nil) or a packed run.
func eachPacked(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

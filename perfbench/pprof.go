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

// cpuProfile is a decoded pprof CPU profile reduced to what the per-layer
// shares need: for each sample, its weight and its call stack as
// function names, leaf first (inlined frames included).
type cpuProfile struct {
	total   int64
	weights []int64
	stacks  [][]string
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "mlless/internal/"

// pkgOf returns the program package a symbol belongs to ("sparse" for
// "mlless/internal/sparse.(*Vector).Dot"), or "" outside the program.
func pkgOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// selfShare is the fraction of samples whose innermost program frame
// lies in one of the given packages. Standard-library and runtime frames
// below it (an inlined decode helper, an allocation) count toward the
// package that called them; samples with no program frame (background
// GC, the scheduler) count toward none.
func (p *cpuProfile) selfShare(pkgs ...string) float64 {
	if p.total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		owner := ""
		for _, fn := range st {
			if owner = pkgOf(fn); owner != "" {
				break
			}
		}
		for _, pkg := range pkgs {
			if owner == pkg {
				n += p.weights[i]
				break
			}
		}
	}
	return float64(n) / float64(p.total)
}

// cumShare is the fraction of samples with at least one frame for which
// match holds.
func (p *cpuProfile) cumShare(match func(fn string) bool) float64 {
	if p.total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		for _, fn := range st {
			if match(fn) {
				n += p.weights[i]
				break
			}
		}
	}
	return float64(n) / float64(p.total)
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof writes.
// Only the fields the shares need are read: samples (location ids and
// the sample count), locations (their line entries' function ids),
// functions (name string index) and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.weights = append(p.weights, s.values[0])
		p.stacks = append(p.stacks, stack)
		p.total += s.values[0]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked handles a repeated varint field in either encoding.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

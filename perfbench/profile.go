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

// The CPU profile fold: decode a pprof profile (gzipped protobuf, the
// format runtime/pprof and /debug/pprof/profile write), attribute every
// sample's CPU time to the function at the top of its stack, and sum by
// the layer that function belongs to. Only the profile.proto fields the
// fold needs are decoded.

// cpuShares returns each layer's share of the profile's CPU time, keyed
// by the names in cpuSharePkgs (layers outside the list are dropped from
// the map but count in the denominator), and the total sampled time.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, pkg := range cpuSharePkgs {
		known[pkg] = true
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU profiles: [samples, nanoseconds]
		total += v
		fn := p.funcName[p.leafFunc[s.locs[0]]]
		if l := layerOf(p.strings, fn); known[l] {
			byLayer[l] += v
		}
	}
	shares := map[string]float64{}
	for _, pkg := range cpuSharePkgs {
		if total > 0 {
			shares[pkg] = float64(byLayer[pkg]) / float64(total)
		} else {
			shares[pkg] = 0
		}
	}
	return shares, total, nil
}

// layerOf maps a Go symbol name to its layer: the package directly under
// ctsan/internal/ (atomicio counts as checkpoint), ctsan/campaign, or
// runtime (including internal/runtime/...). Anything else returns "".
func layerOf(strs []string, idx int64) string {
	if idx < 0 || idx >= int64(len(strs)) {
		return ""
	}
	return layerOfName(strs[idx])
}

func layerOfName(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "ctsan/campaign":
		return "campaign"
	case pkg == "ctsan/internal/atomicio":
		return "checkpoint"
	case strings.HasPrefix(pkg, "ctsan/internal/"):
		rest := strings.TrimPrefix(pkg, "ctsan/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return ""
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					for _, x := range appendVarints(nil, wire, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined call
					if first {
						first = false
						return eachField(data, func(num, wire int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and value: v for varints, data for length-delimited
// fields. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

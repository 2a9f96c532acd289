package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into a public entry point of the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Trace   string `json:"trace"`  // the workload run
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // host time since the run started
	EndNs   int64  `json:"end_ns"`
}

// spans records spans in memory; they are written out when the run ends.
// A nil *spans records nothing, which is how untraced runs call it.
type spans struct {
	trace string
	t0    time.Time
	open  []int // ids of the spans enclosing the current call
	list  []span
}

func newSpans(trace string) *spans { return &spans{trace: trace, t0: time.Now()} }

// do runs f inside a span named name.
func (s *spans) do(name string, f func()) {
	if s == nil {
		f()
		return
	}
	sp := span{ID: len(s.list) + 1, Trace: s.trace, Name: name, StartNs: time.Since(s.t0).Nanoseconds()}
	if n := len(s.open); n > 0 {
		sp.Parent = s.open[n-1]
	}
	s.list = append(s.list, sp)
	s.open = append(s.open, sp.ID)
	f()
	s.open = s.open[:len(s.open)-1]
	s.list[sp.ID-1].EndNs = time.Since(s.t0).Nanoseconds()
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// modules are the program's packages host time is attributed to, named as
// in the per-layer metrics; "runtime" takes samples with no program frame
// (garbage collection, scheduling, the benchmark's own code).
var modules = []string{
	"app", "dittofs", "branch", "cache", "core", "cpu", "disk", "dtrace",
	"experiments", "fault", "interfere", "isa", "kernel", "loadgen", "mem",
	"netsim", "platform", "profile", "sim", "stats", "steady", "synth",
	"verify", "runtime",
}

const modulePrefix = "ditto/internal/"

// moduleOf maps a function symbol to its module, or "" when it is not in a
// ditto/internal package.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	// The package path ends at the first '.' after the last '/'.
	end := strings.IndexByte(rest, '.')
	if end < 0 {
		return ""
	}
	pkg := rest[:end]
	if pkg == "app/dittofs" {
		return "dittofs"
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// profiler takes Go CPU profiles of phase segments and accumulates, per
// phase, the CPU time of each module.
type profiler struct {
	buf bytes.Buffer
	ns  map[string]map[string]float64 // phase → module → sampled CPU ns
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// stop ends the segment's profile and adds it to the phase's totals,
// giving each sample to its innermost ditto/internal frame.
func (p *profiler) stop(phase string) error {
	pprof.StopCPUProfile()
	ns, err := attribute(p.buf.Bytes())
	if err != nil {
		return err
	}
	if p.ns == nil {
		p.ns = map[string]map[string]float64{}
	}
	if p.ns[phase] == nil {
		p.ns[phase] = map[string]float64{}
	}
	for m, v := range ns {
		p.ns[phase][m] += v
	}
	return nil
}

// shares returns each module's share of a phase's CPU time, in percent.
func (p *profiler) shares(phase string) map[string]float64 {
	var total float64
	for _, v := range p.ns[phase] {
		total += v
	}
	sh := map[string]float64{}
	if total == 0 {
		return sh
	}
	for m, v := range p.ns[phase] {
		sh[m] = v / total * 100
	}
	return sh
}

func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	locMod := map[uint64]string{}
	for id, fns := range prof.locations {
		for _, fid := range fns { // innermost (inlined) function first
			if m := moduleOf(prof.strings[prof.functions[fid]]); m != "" {
				locMod[id] = m
				break
			}
		}
	}
	ns := map[string]float64{}
	for _, s := range prof.samples {
		mod := "runtime"
		for _, loc := range s.locs { // leaf first
			if m, ok := locMod[loc]; ok {
				mod = m
				break
			}
		}
		ns[mod] += float64(s.value)
	}
	return ns, nil
}

// The CPU profile is a gzipped protocol buffer (profile.proto). The standard
// library writes it but does not read it; this is the subset the
// attribution needs: samples, locations with their inlined lines,
// functions and the string table.
type pbSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pbProfile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

var errProto = errors.New("malformed cpu profile")

// field walks the fields of one protobuf message.
func fields(b []byte, f func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated varint field, packed or not.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num, wire int, v uint64, data []byte) error {
		var err error
		switch num {
		case 2: // sample
			var s pbSample
			var values []uint64
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, wire, v, data)
				case 2:
					values, err = repeated(values, wire, v, data)
				}
				return err
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err = fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}

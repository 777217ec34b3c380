// Package runspec is the one description of an analysis run. The library's
// Options embed a Spec, the analysis CLI binds its flags to one, and a
// daemon job spec is one: the same fields and defaults, one validator, and
// one parser per value syntax. pipeline.ConfigFor turns a Spec into the
// pipeline's configuration and placement.
//
// The zero value of every field is its default, so an omitted JSON key, an
// unset flag and an unset struct field describe the same run. The defaults
// are the fast path: kernel workers and read-ahead depth size themselves,
// and the sequential reference kernel (the bit-exactness oracle) is an
// explicit kernel_workers 1. What only an engine run has — the engine, the
// wire codec, retries and breakers, checkpoints, tuning, the kernel's inner
// knobs — stays an option of the front end that has it.
//
// A key taken out of the spec (the block cache's two, when the cache went)
// is an unknown key from then on: a job submit carrying it is refused, and
// a journal replay, which decodes leniently, drops it and keeps every other
// field.
package runspec

import (
	"cmp"
	"encoding"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/readahead"
)

// Spec is one analysis run. The JSON keys (a daemon job spec's) and the
// flags Bind registers (the analysis CLI's) are both frozen: scripts and
// recorded job journals use them.
type Spec struct {
	Dataset string `json:"dataset"`           // dataset URL: path, file://, mem:// or http(s)://
	Output  Output `json:"output,omitempty"`  // sink, default uso
	OutDir  string `json:"out_dir,omitempty"` // where the sink writes

	ROI            Shape               `json:"roi,omitempty"`      // default 16x16x3x3
	ChunkShape     Shape               `json:"chunk,omitempty"`    // default: sized from the dataset
	GrayLevels     int                 `json:"gray,omitempty"`     // default 32, range [2, 256]
	NDim           int                 `json:"ndim,omitempty"`     // direction-set dimensionality, default 4
	Distance       int                 `json:"distance,omitempty"` // default 1
	Features       Features            `json:"features,omitempty"` // default: the paper's four
	Representation core.Representation `json:"rep,omitempty"`      // default full
	Impl           Impl                `json:"impl,omitempty"`     // default hmp
	Policy         Policy              `json:"policy,omitempty"`   // default demand-driven

	Texture       int       `json:"texture,omitempty"`        // texture filter copies, default 4
	KernelWorkers int       `json:"kernel_workers,omitempty"` // per texture copy; 0 = one per CPU, 1 = the sequential oracle
	ReadAhead     ReadAhead `json:"readahead,omitempty"`      // windows in flight per reader; 0 = self-sized

	FaultPolicy  fault.Policy `json:"fault_policy,omitempty"`  // default fail-fast
	StallTimeout Duration     `json:"stall_timeout,omitempty"` // no-progress watchdog; 0 = off
	Deadline     Millis       `json:"deadline_ms,omitempty"`   // wall-clock budget; 0 = none
	ServeStale   bool         `json:"serve_stale,omitempty"`   // degrade reads while the breaker is open
}

// maxCopies bounds Texture: beyond any host, well inside what a layout can
// allocate. ReadAhead stops at readahead.MaxRequests, as a self-sized reader
// does: each reader allocates its slot queue at its depth.
const maxCopies = 1024

// Defaults returns the default run with every default resolved.
func Defaults() Spec {
	c := core.DefaultConfig()
	return Spec{ROI: c.ROI, GrayLevels: c.GrayLevels, NDim: c.NDim, Distance: c.Distance, Features: c.Features, Texture: 4}
}

// Resolved returns s with its zero fields replaced by the defaults; the
// fields whose zero value is itself the default (the enums, the self-sized
// counts, the off switches) stay as they are.
func (s Spec) Resolved() Spec {
	d := Defaults()
	s.ROI = cmp.Or(s.ROI, d.ROI)
	s.GrayLevels = cmp.Or(s.GrayLevels, d.GrayLevels)
	s.NDim = cmp.Or(s.NDim, d.NDim)
	s.Distance = cmp.Or(s.Distance, d.Distance)
	s.Texture = cmp.Or(s.Texture, d.Texture)
	if len(s.Features) == 0 {
		s.Features = d.Features
	}
	return s
}

// Analysis returns the texture-analysis configuration of the spec.
func (s Spec) Analysis() core.Config {
	r := s.Resolved()
	return core.Config{ROI: r.ROI, GrayLevels: r.GrayLevels, NDim: r.NDim, Distance: r.Distance,
		Features: r.Features, Representation: r.Representation, Workers: r.KernelWorkers}
}

// ErrInvalid matches every error of this package: a value that does not
// parse, or a spec Validate refuses.
var ErrInvalid = errors.New("spec: invalid run spec")

type invalidError string

func (e invalidError) Error() string        { return "spec: " + string(e) }
func (e invalidError) Is(target error) bool { return target == ErrInvalid }

func invalid(format string, args ...any) error {
	return invalidError(fmt.Sprintf(format, args...))
}

// Validate reports the first problem with the spec, naming the field by its
// JSON key and its flag. It is the only validator of a run: the CLI exits 2
// on its error, the daemon answers 400 and the library returns it. Whether
// a dataset is required is the front end's business.
func (s *Spec) Validate() error {
	if s.Dataset != "" {
		if _, _, err := dataset.ParseURL(s.Dataset); err != nil {
			return invalid("%v", err)
		}
	}
	for _, e := range []encoding.TextMarshaler{s.Output, s.Representation, s.Impl, s.Policy, s.FaultPolicy} {
		if _, err := e.MarshalText(); err != nil {
			return invalid("%v", err)
		}
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"texture (-texture)", s.Texture}, {"kernel_workers (-kernel-workers)", s.KernelWorkers},
		{"readahead (-readahead)", int(s.ReadAhead)},
	} {
		if c.v < 0 {
			return invalid("%s must not be negative, got %d", c.name, c.v)
		}
	}
	switch {
	case s.Texture > maxCopies:
		return invalid("texture (-texture) %d is more than %d copies", s.Texture, maxCopies)
	case s.ReadAhead > readahead.MaxRequests:
		return invalid("readahead (-readahead) %d is more than the %d requests the backend keeps alive", s.ReadAhead, readahead.MaxRequests)
	case s.StallTimeout < 0:
		return invalid("stall_timeout (-stall-timeout) must not be negative, got %v", time.Duration(s.StallTimeout))
	case s.Deadline < 0:
		return invalid("deadline_ms (-deadline) must not be negative, got %v", time.Duration(s.Deadline))
	case s.ServeStale && s.FaultPolicy != fault.SkipDegraded:
		return invalid("serve_stale (-serve-stale) requires fault_policy (-fault-policy) skip-degraded: stale reads surface as degraded slices")
	}
	a := s.Analysis()
	if err := a.Validate(); err != nil {
		return invalid("%v", err)
	}
	if s.ChunkShape != (Shape{}) {
		for k, n := range s.ChunkShape {
			if n < a.ROI[k] {
				return invalid("chunk (-chunk) %v is smaller than roi (-roi) %v in dimension %d", s.ChunkShape, Shape(a.ROI), k)
			}
		}
	}
	return nil
}

// DecodeJSON reads a spec from a job-submit body. An unknown key is an
// error, so a misspelt key cannot silently leave its field at the default;
// replaying specs already accepted takes json.Unmarshal, which is lenient.
func DecodeJSON(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		if !errors.Is(err, ErrInvalid) {
			err = invalid("%v", err)
		}
		return Spec{}, err
	}
	return s, nil
}

// Bind registers one flag per field on fs under the analysis CLI's names.
// An unset flag leaves its field at the zero value, the default.
func (s *Spec) Bind(fs *flag.FlagSet) {
	d := Defaults()
	fs.StringVar(&s.Dataset, "dataset-url", s.Dataset, "dataset URL: a directory path, file://dir, mem://name, or http(s)://host/prefix for a remote range-read server (overrides -data)")
	fs.TextVar(&s.Output, "format", s.Output, "output: uso (unstitched, checkpointable), jpeg (stitched slice series; holds whole volumes in memory), none (collect only)")
	fs.StringVar(&s.OutDir, "out", s.OutDir, "output directory (required unless -format none)")
	fs.TextVar(&s.ROI, "roi", s.ROI, "ROI window XxYxZxT (default "+d.ROI.String()+")")
	fs.TextVar(&s.ChunkShape, "chunk", s.ChunkShape, "IIC-to-TEXTURE chunk shape XxYxZxT (default: sized from the dataset)")
	fs.IntVar(&s.GrayLevels, "gray", s.GrayLevels, fmt.Sprintf("gray levels G (default %d)", d.GrayLevels))
	fs.IntVar(&s.NDim, "ndim", s.NDim, fmt.Sprintf("direction-set dimensionality 1-4 (default %d)", d.NDim))
	fs.IntVar(&s.Distance, "distance", s.Distance, fmt.Sprintf("displacement distance (default %d)", d.Distance))
	fs.TextVar(&s.Features, "features", s.Features, "comma-separated feature names (default "+d.Features.String()+")")
	fs.TextVar(&s.Representation, "rep", s.Representation, "matrix representation: full, full-noskip, sparse")
	fs.TextVar(&s.Impl, "impl", s.Impl, "texture implementation: hmp or split")
	fs.TextVar(&s.Policy, "policy", s.Policy, "buffer scheduling: demand-driven or round-robin")
	fs.IntVar(&s.Texture, "texture", s.Texture, fmt.Sprintf("texture filter copies, HMP or HCC+HPC pairs (default %d)", d.Texture))
	fs.IntVar(&s.KernelWorkers, "kernel-workers", s.KernelWorkers, "intra-chunk kernel workers per texture copy (0 = auto: all CPUs; 1 = the sequential reference kernel, the bit-exactness oracle, many times slower)")
	fs.TextVar(&s.ReadAhead, "readahead", s.ReadAhead, "I/O windows each dataset reader keeps in flight: `N` or auto (0 is auto: each reader sizes itself)")
	fs.TextVar(&s.FaultPolicy, "fault-policy", s.FaultPolicy, "degraded-slice handling: fail-fast or skip-degraded")
	fs.TextVar(&s.StallTimeout, "stall-timeout", s.StallTimeout, "fail the run if no filter makes progress for this long, e.g. 2m (0 = wait forever)")
	fs.TextVar(&s.Deadline, "deadline", s.Deadline, "wall-clock budget for the whole run, e.g. 10m, propagated into every backend read (0 = none)")
	fs.BoolVar(&s.ServeStale, "serve-stale", s.ServeStale, "while the backend breaker is open, degrade unavailable slices instead of failing (requires -fault-policy skip-degraded)")
}

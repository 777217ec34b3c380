package runspec

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"haralick4d/internal/features"
	"haralick4d/internal/filter"
)

// The value types of a Spec. Each has one text form, shared by its flag
// (flag.TextVar) and, for the enums and Duration, its JSON string; Shape,
// Features, Millis and ReadAhead keep the JSON forms job specs have always
// had (arrays and numbers). An enum's zero value is its default, and its
// MarshalText refuses a value out of range, which is how Validate checks a
// Go literal.

// Output selects a run's sink: uso (the default; unstitched parameter
// files, disk-resident and checkpointable), jpeg (stitched JPEG slice
// series, HIC+JIW, which hold whole volumes in memory) or none (collect and
// discard).
type Output int

// The three sinks.
const (
	OutputUSO Output = iota
	OutputJPEG
	OutputNone
)

// Impl selects the texture-filter decomposition: hmp (the default, Fig. 5)
// or split into pipelined HCC and HPC filters (Fig. 4).
type Impl int

// The two decompositions.
const (
	HMP Impl = iota
	Split
)

// Policy selects how buffers are dealt to the texture copies:
// demand-driven (the default) or round-robin.
type Policy int

// The two texture scheduling policies.
const (
	DemandDriven Policy = iota
	RoundRobin
)

var (
	outputs  = enum[Output]{"uso", "jpeg", "none"}
	impls    = enum[Impl]{"hmp", "split"}
	policies = enum[Policy]{"demand-driven", "round-robin"}
)

func (o Output) MarshalText() ([]byte, error)  { return outputs.text(o) }
func (o *Output) UnmarshalText(b []byte) error { return outputs.parse(b, o, "output") }
func (i Impl) String() string                  { return impls.name(i) }
func (i Impl) MarshalText() ([]byte, error)    { return impls.text(i) }
func (i *Impl) UnmarshalText(b []byte) error   { return impls.parse(b, i, "implementation") }
func (p Policy) MarshalText() ([]byte, error)  { return policies.text(p) }

// UnmarshalText takes filter.ParsePolicy's short forms rr and dd too.
func (p *Policy) UnmarshalText(b []byte) error {
	if fp, err := filter.ParsePolicy(string(b)); err == nil {
		b = []byte(fp.String())
	}
	return policies.parse(b, p, "policy")
}

// Filter returns the filter runtime's policy.
func (p Policy) Filter() filter.Policy {
	if p == RoundRobin {
		return filter.RoundRobin
	}
	return filter.DemandDriven
}

// enum lists the text forms of a small int enum's values, in order.
type enum[T ~int] []string

func (e enum[T]) name(v T) string {
	if int(v) < 0 || int(v) >= len(e) {
		return fmt.Sprintf("%T(%d)", v, int(v))
	}
	return e[v]
}

func (e enum[T]) text(v T) ([]byte, error) {
	if int(v) < 0 || int(v) >= len(e) {
		return nil, invalid("%T %d out of range", v, int(v))
	}
	return []byte(e[v]), nil
}

func (e enum[T]) parse(b []byte, v *T, what string) error {
	for i, name := range e {
		if name == string(b) {
			*v = T(i)
			return nil
		}
	}
	return invalid("unknown %s %q (%s)", what, b, strings.Join(e, ", "))
}

// Shape is a 4D extent (x, y, z, t): text "XxYxZxT", JSON a 4-int array.
// The zero shape, text "", selects the default.
type Shape [4]int

func (s Shape) String() string {
	if s == (Shape{}) {
		return ""
	}
	return fmt.Sprintf("%dx%dx%dx%d", s[0], s[1], s[2], s[3])
}

func (s Shape) MarshalText() ([]byte, error)  { return []byte(s.String()), nil }
func (s Shape) MarshalJSON() ([]byte, error)  { return json.Marshal([4]int(s)) }
func (s *Shape) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, (*[4]int)(s)) }

// UnmarshalText takes exactly four integers joined by "x".
func (s *Shape) UnmarshalText(b []byte) error {
	var v Shape
	if len(b) > 0 {
		parts := strings.Split(string(b), "x")
		if len(parts) != len(v) {
			return invalid("shape %q is not XxYxZxT", b)
		}
		for k, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil {
				return invalid("shape %q is not XxYxZxT", b)
			}
			v[k] = n
		}
	}
	*s = v
	return nil
}

// Features is a list of Haralick parameters: text a comma-separated name
// list, JSON an array of names. Empty selects the paper's four.
type Features []features.Feature

func (f Features) names() []string {
	names := make([]string, len(f))
	for i, x := range f {
		names[i] = x.String()
	}
	return names
}

func (f Features) String() string               { return strings.Join(f.names(), ",") }
func (f Features) MarshalText() ([]byte, error) { return []byte(f.String()), nil }
func (f Features) MarshalJSON() ([]byte, error) { return json.Marshal(f.names()) }

func (f *Features) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		return f.parse(nil)
	}
	return f.parse(strings.Split(string(b), ","))
}

func (f *Features) UnmarshalJSON(b []byte) error {
	var names []string
	if err := json.Unmarshal(b, &names); err != nil {
		return err
	}
	return f.parse(names)
}

func (f *Features) parse(names []string) error {
	var v Features
	for _, name := range names {
		x, err := features.Parse(name)
		if err != nil {
			return invalid("%v", err)
		}
		v = append(v, x)
	}
	*f = v
	return nil
}

// Duration is a time.Duration whose text and JSON form is Go's duration
// syntax ("2m"); 0, or text "", is off.
type Duration time.Duration

func (d Duration) MarshalText() ([]byte, error) { return []byte(time.Duration(d).String()), nil }

func (d *Duration) UnmarshalText(b []byte) error {
	v, err := time.ParseDuration(string(b))
	if len(b) > 0 && err != nil {
		return invalid("%v", err)
	}
	*d = Duration(v)
	return nil
}

// Millis is a Duration whose JSON form is a whole number of milliseconds
// (a job spec's deadline_ms).
type Millis Duration

func (m Millis) MarshalText() ([]byte, error)  { return Duration(m).MarshalText() }
func (m *Millis) UnmarshalText(b []byte) error { return (*Duration)(m).UnmarshalText(b) }
func (m Millis) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(m).Milliseconds())
}

func (m *Millis) UnmarshalJSON(b []byte) error {
	var ms int64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	if most := int64(math.MaxInt64 / time.Millisecond); ms > most || ms < -most {
		return invalid("%d ms is out of range", ms)
	}
	*m = Millis(time.Duration(ms) * time.Millisecond)
	return nil
}

// ReadAhead is the I/O windows each dataset reader keeps in flight: 0, text
// "auto", lets every reader size itself; N ≥ 1 is a fixed depth. Its JSON
// form is the number or the string "auto".
type ReadAhead int

func (r ReadAhead) MarshalJSON() ([]byte, error) { return json.Marshal(int(r)) }

func (r ReadAhead) MarshalText() ([]byte, error) {
	if r == 0 {
		return []byte("auto"), nil
	}
	return []byte(strconv.Itoa(int(r))), nil
}

func (r *ReadAhead) UnmarshalText(b []byte) error {
	n, err := strconv.Atoi(string(b))
	if string(b) != "auto" && err != nil {
		return invalid("readahead %q is neither auto nor a count", b)
	}
	*r = ReadAhead(n)
	return nil
}

func (r *ReadAhead) UnmarshalJSON(b []byte) error {
	var s string
	if len(b) == 0 || b[0] != '"' || json.Unmarshal(b, &s) != nil {
		return json.Unmarshal(b, (*int)(r))
	}
	return r.UnmarshalText([]byte(s))
}

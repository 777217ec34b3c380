package runspec

import (
	"encoding"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/readahead"
)

// TestValueText pins each value type's one text syntax, shared by its flag
// and (for the enums and durations) its JSON string.
func TestValueText(t *testing.T) {
	var (
		shape Shape
		feats Features
		dur   Duration
		ms    Millis
		ra    ReadAhead
		out   Output
		impl  Impl
		pol   Policy
		rep   core.Representation
		fp    fault.Policy
	)
	cases := []struct {
		v        interface{ encoding.TextUnmarshaler }
		in, want string // want "" with ok false: a parse error
		ok       bool
	}{
		{&shape, "5x5x2x2", "5x5x2x2", true},
		{&shape, "", "", true},
		{&shape, "5x5x2x2junk", "", false},
		{&shape, "5x5x2", "", false},
		{&shape, "5x5x2x2x1", "", false},
		{&feats, "asm,Contrast", "asm,contrast", true},
		{&feats, "", "", true},
		{&feats, "asm,", "", false},
		{&dur, "2m", "2m0s", true},
		{&dur, "", "0s", true},
		{&dur, "later", "", false},
		{&ms, "1m", "1m0s", true},
		{&ra, "auto", "auto", true},
		{&ra, "0", "auto", true},
		{&ra, "64", "64", true},
		{&ra, "deep", "", false},
		{&out, "jpeg", "jpeg", true},
		{&out, "tiff", "", false},
		{&impl, "split", "split", true},
		{&pol, "rr", "round-robin", true},
		{&pol, "demand-driven", "demand-driven", true},
		{&pol, "explicit", "", false},
		{&rep, "sparse", "sparse", true},
		{&fp, "skip", "skip-degraded", true},
	}
	for _, c := range cases {
		err := c.v.UnmarshalText([]byte(c.in))
		if !c.ok {
			if err == nil {
				t.Errorf("%T %q parsed", c.v, c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%T %q: %v", c.v, c.in, err)
			continue
		}
		got, err := c.v.(encoding.TextMarshaler).MarshalText()
		if err != nil || string(got) != c.want {
			t.Errorf("%T %q: text %q, %v; want %q", c.v, c.in, got, err, c.want)
		}
	}
}

// TestSpecJSON pins the JSON forms job specs and recorded journals use —
// 4-int arrays, name arrays, a duration string, milliseconds, a number or
// "auto" — and that they round-trip.
func TestSpecJSON(t *testing.T) {
	body := `{"dataset":"/d","output":"jpeg","roi":[5,5,2,2],"chunk":[12,12,3,4],"features":["asm","contrast"],
		"rep":"sparse","policy":"rr","kernel_workers":1,"readahead":"auto","fault_policy":"skip-degraded",
		"stall_timeout":"2m","deadline_ms":60000,"serve_stale":true}`
	s, err := DecodeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Dataset: "/d", Output: OutputJPEG, ROI: Shape{5, 5, 2, 2}, ChunkShape: Shape{12, 12, 3, 4},
		Features: Features{features.ASM, features.Contrast}, Representation: core.SparseMatrix, Policy: RoundRobin,
		KernelWorkers: 1, FaultPolicy: fault.SkipDegraded, StallTimeout: Duration(2 * time.Minute),
		Deadline: Millis(time.Minute), ServeStale: true}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("decoded %+v\nwant    %+v", s, want)
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"roi":[5,5,2,2]`, `"features":["asm","contrast"]`, `"policy":"round-robin"`, `"stall_timeout":"2m0s"`, `"deadline_ms":60000`} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("%s lacks %s", out, frag)
		}
	}
	if again, err := DecodeJSON(strings.NewReader(string(out))); err != nil || !reflect.DeepEqual(again, s) {
		t.Fatalf("round trip: %+v, %v", again, err)
	}
	var ra Spec
	if err := json.Unmarshal([]byte(`{"readahead":8}`), &ra); err != nil || ra.ReadAhead != 8 {
		t.Fatalf("numeric readahead: %+v, %v", ra, err)
	}
}

// TestDecodeJSONStrict: a misspelt key is an error naming it, where
// json.Unmarshal (journal replay) ignores it.
func TestDecodeJSONStrict(t *testing.T) {
	body := `{"dataset":"/d","kernel_worker":2}`
	if _, err := DecodeJSON(strings.NewReader(body)); err == nil || !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), `"kernel_worker"`) {
		t.Fatalf("unknown key: %v", err)
	}
	var s Spec
	if err := json.Unmarshal([]byte(body), &s); err != nil || s.Dataset != "/d" {
		t.Fatalf("lenient decode: %+v, %v", s, err)
	}
	if _, err := DecodeJSON(strings.NewReader(`{"output":"tiff"}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad value: %v", err)
	}
}

// TestStallTimeout: -stall-timeout parses Go durations, 0 is off (as in a
// job spec), a negative timeout is refused by Validate.
func TestStallTimeout(t *testing.T) {
	cases := []struct {
		name, arg string
		want      time.Duration
		wantErr   string
	}{
		{"stall", "2m", 2 * time.Minute, ""},
		{"zero-stall", "0s", 0, ""},
		{"negative-stall", "-5s", 0, "stall_timeout (-stall-timeout) must not be negative, got -5s"},
		{"garbage-stall", "whenever", 0, `invalid value "whenever" for flag -stall-timeout`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("stall", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var s Spec
			s.Bind(fs)
			err := fs.Parse([]string{"-stall-timeout", c.arg})
			if err == nil {
				err = s.Validate()
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil || time.Duration(s.StallTimeout) != c.want {
				t.Fatalf("got %v, %v; want %v", time.Duration(s.StallTimeout), err, c.want)
			}
		})
	}
}

// TestDefaults: the zero spec resolves to Defaults, which are the paper's
// analysis on four texture copies with the self-sized kernel and read-ahead.
func TestDefaults(t *testing.T) {
	d := Defaults()
	if got := (Spec{}).Resolved(); !reflect.DeepEqual(got, d) {
		t.Fatalf("Spec{}.Resolved() = %+v, want %+v", got, d)
	}
	c := core.DefaultConfig()
	if d.ROI != Shape(c.ROI) || d.GrayLevels != 32 || d.NDim != 4 || d.Distance != 1 || d.Texture != 4 ||
		!reflect.DeepEqual([]features.Feature(d.Features), features.PaperSet()) {
		t.Fatalf("Defaults() = %+v", d)
	}
	if d.KernelWorkers != 0 || d.ReadAhead != 0 || d.Output != OutputUSO || d.Policy != DemandDriven {
		t.Fatalf("Defaults() leave the fast path: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsOutOfRange: a Go literal can hold an enum value no
// text names; Validate refuses it instead of running it.
func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, s := range []Spec{{Output: 7}, {Impl: -1}, {Policy: 2}, {Representation: 9}, {FaultPolicy: 3}, {Texture: maxCopies + 1}, {ReadAhead: readahead.MaxRequests + 1}} {
		if err := s.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

// TestReadmeListsEveryFlag fails when a flag Bind registers, or a job-spec
// key, is missing from README.md's run-spec table.
func TestReadmeListsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("readme", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s Spec
	s.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(string(readme), "`-"+f.Name) {
			t.Errorf("README.md does not document -%s", f.Name)
		}
	})
	st := reflect.TypeOf(s)
	for i := 0; i < st.NumField(); i++ {
		key, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if !strings.Contains(string(readme), "`"+key+"`") {
			t.Errorf("README.md does not document the %q job-spec key", key)
		}
	}
}

// FuzzDatasetURL holds dataset.ParseURL, as Spec.Validate runs it, to its
// contract: any dataset string is refused with an ErrInvalid error, or
// parses to one of the four schemes with a rest that obeys that scheme's
// rule. It never panics.
func FuzzDatasetURL(f *testing.F) {
	for _, seed := range []string{
		"", "/data/study1", "study", "file:///data/study1", "file://", "mem://phantom", "mem://", "mem://a/b",
		"http://localhost:7000/prefix", "https://h", "http://", "http:///x", "ftp://h/x", "://", "a://b://c", "\x00://\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s := Spec{Dataset: raw}
		err := s.Validate()
		scheme, rest, perr := dataset.ParseURL(raw)
		if raw == "" {
			// No dataset is the front end's business, not the spec's.
			if err != nil || perr == nil {
				t.Fatalf("empty dataset: Validate %v, ParseURL %v", err, perr)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrInvalid) || perr == nil {
				t.Fatalf("%q: Validate %v (ErrInvalid %v), ParseURL %v", raw, err, errors.Is(err, ErrInvalid), perr)
			}
			return
		}
		if perr != nil {
			t.Fatalf("%q: Validate accepted what ParseURL refuses: %v", raw, perr)
		}
		after, hasSep := strings.CutPrefix(raw, scheme+"://")
		switch scheme {
		case "file":
			if rest == "" || (hasSep && rest != after) || (!hasSep && (rest != raw || strings.Contains(raw, "://"))) {
				t.Fatalf("%q: file rest %q", raw, rest)
			}
		case "mem":
			if !hasSep || rest != after || rest == "" || strings.Contains(rest, "/") {
				t.Fatalf("%q: mem rest %q", raw, rest)
			}
		case "http", "https":
			if !hasSep || rest != raw || after == "" || strings.HasPrefix(after, "/") {
				t.Fatalf("%q: %s rest %q", raw, scheme, rest)
			}
		default:
			t.Fatalf("%q: scheme %q", raw, scheme)
		}
	})
}

package harness

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

func TestParseThreads(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"1,2,4", []int{1, 2, 4}, false},
		{" 1 , 2 ", []int{1, 2}, false},
		{"8", []int{8}, false},
		{"", nil, true},
		{"  ", nil, true},
		{"0", nil, true},
		{"-3", nil, true},
		{"two", nil, true},
		{"1,,2", nil, true},
		{"1,2,x", nil, true},
	}
	for _, c := range cases {
		got, err := ParseThreads(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseThreads(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseThreads(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Table test over the shared flag surface: defaults apply, every
// shared flag parses, and suppressed flags are not registered.
func TestRegisterFlagTable(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		args []string
		want Flags
	}{
		{
			name: "defaults",
			spec: Spec{Duration: 300 * time.Millisecond, Runs: 3, Threads: "1,2", Seed: 1},
			args: nil,
			want: Flags{Duration: 300 * time.Millisecond, Runs: 3, Threads: "1,2", Seed: 1},
		},
		{
			name: "all overridden",
			spec: Spec{Duration: 300 * time.Millisecond, Runs: 3, Threads: "1,2", Seed: 1},
			args: []string{"-duration=50ms", "-runs=7", "-threads=4,8", "-seed=42", "-json", "-csv", "-out=x.json"},
			want: Flags{Duration: 50 * time.Millisecond, Runs: 7,
				Threads: "4,8", Seed: 42, JSON: true, CSV: true, Out: "x.json"},
		},
		{
			name: "json only surface",
			spec: Spec{Runs: 3, NoThreads: true, NoSeed: true},
			args: []string{"-json"},
			want: Flags{Runs: 3, JSON: true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Register(fs, c.spec)
			if err := fs.Parse(c.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			if *f != c.want {
				t.Fatalf("flags = %+v, want %+v", *f, c.want)
			}
		})
	}
}

func TestRegisterSuppressesFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs, Spec{NoThreads: true, NoSeed: true})
	for _, name := range []string{"threads", "seed"} {
		if fs.Lookup(name) != nil {
			t.Errorf("suppressed flag -%s still registered", name)
		}
	}
	for _, name := range []string{"duration", "runs", "json", "out", "csv"} {
		if fs.Lookup(name) == nil {
			t.Errorf("always-on flag -%s missing", name)
		}
	}
}

func TestThreadCounts(t *testing.T) {
	f := &Flags{Threads: "2,4"}
	got, err := f.ThreadCounts()
	if err != nil || !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("ThreadCounts = %v, %v", got, err)
	}
}

package harness

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Flags is the flag surface shared by the benchmark commands. Before
// this helper each command re-declared -seed/-duration/-threads/-runs
// with drifting defaults and usage strings (and kvbench's
// readwhilewriting mode silently ignored -runs); registering them in
// one place keeps the surface identical everywhere, parallel to
// registry.LocksFlag for -locks.
type Flags struct {
	Duration time.Duration
	Runs     int
	Seed     uint64
	Threads  string
	JSON     bool
	Out      string
	CSV      bool
}

// Spec parameterizes Register: defaults for each shared flag, plus
// suppressors for commands where a flag is meaningless (atomicbench
// fixes its thread sweep and takes no seed).
type Spec struct {
	Duration time.Duration
	Runs     int
	Threads  string
	Seed     uint64

	NoThreads, NoSeed bool
}

// Register declares the shared flags on fs and returns the bound
// value set. -json and -out are always registered: every harness
// command emits the versioned Result schema.
func Register(fs *flag.FlagSet, s Spec) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.Duration, "duration", s.Duration, "measurement interval per configuration")
	fs.IntVar(&f.Runs, "runs", s.Runs, "independent runs per configuration (median reported)")
	if !s.NoThreads {
		fs.StringVar(&f.Threads, "threads", s.Threads, "comma-separated worker (goroutine) counts")
	}
	if !s.NoSeed {
		fs.Uint64Var(&f.Seed, "seed", s.Seed, "top-level seed (PRNG streams, chaos injection)")
	}
	fs.BoolVar(&f.JSON, "json", false, "emit the versioned harness Result JSON instead of text tables")
	fs.StringVar(&f.Out, "out", "", "write the report to this file instead of stdout")
	fs.BoolVar(&f.CSV, "csv", false, "emit CSV instead of an aligned text table")
	return f
}

// ThreadCounts parses the -threads spec.
func (f *Flags) ThreadCounts() ([]int, error) { return ParseThreads(f.Threads) }

// ParseThreads parses a comma-separated list of positive worker
// counts ("1,2,4"). Whitespace around items is tolerated; empty
// specs, non-integers, and non-positive counts are errors.
func ParseThreads(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty thread list")
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// OutputFile resolves -out: stdout when empty, else the created file.
// The returned close func is a no-op for stdout.
func (f *Flags) OutputFile() (*os.File, func() error, error) {
	if f.Out == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	file, err := os.Create(f.Out)
	if err != nil {
		return nil, nil, err
	}
	return file, file.Close, nil
}

package harness

import (
	"encoding/json"
	"io"
	"math"
	"os/exec"
	"runtime"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/lockstat"
	"repro/internal/stats"
)

// SchemaVersion is the version of the JSON result schema, written as
// every result's "schema" field so that a reader can tell schema
// changes apart; bump it whenever a field's meaning changes or a
// required field is added/removed.
const SchemaVersion = 1

// Env captures the execution environment of a measurement, following
// the OCC-for-Go study's practice of recording runtime/scheduler
// configuration alongside every result — two result files are only
// comparable if their environments are.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitSHA is the repository commit the binary was built from
	// (best-effort; empty when git is unavailable).
	GitSHA string `json:"git_sha,omitempty"`
	Seed   uint64 `json:"seed"`
	// Chaos records whether deterministic fault injection was armed;
	// chaotic results are never comparable to clean ones.
	Chaos bool `json:"chaos,omitempty"`
}

var (
	gitSHAOnce sync.Once
	gitSHA     string
)

// CaptureEnv snapshots the current environment. seed is the harness's
// top-level seed; chaos arming is read from internal/chaos directly.
func CaptureEnv(seed uint64) Env {
	gitSHAOnce.Do(func() {
		out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
		if err == nil {
			gitSHA = strings.TrimSpace(string(out))
		}
	})
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA,
		Seed:       seed,
		Chaos:      chaos.Enabled(),
	}
}

// Summary embeds the internal/stats description of a score sample.
type Summary struct {
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		Median: stats.Median(xs),
		Mean:   stats.Mean(xs),
		StdDev: stats.StdDev(xs),
		Min:    stats.Min(xs),
		Max:    stats.Max(xs),
	}
}

// Cell is one measured configuration: one lock (or schedule, or
// variant) × workload × thread count. Score is the cell's primary
// metric in Unit; higher is always better.
type Cell struct {
	Lock     string `json:"lock,omitempty"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads,omitempty"`
	Unit     string `json:"unit"`

	Score float64 `json:"score"`
	// Runs holds every independent run's score, in run order; Summary
	// describes them. Both are omitted for single-shot cells.
	Runs    []float64 `json:"runs,omitempty"`
	Summary *Summary  `json:"summary,omitempty"`

	// Fairness metrics of the median-defining run.
	Jain      float64  `json:"jain,omitempty"`
	Disparity float64  `json:"disparity,omitempty"`
	PerWorker []uint64 `json:"per_worker,omitempty"`

	ElapsedNS int64 `json:"elapsed_ns,omitempty"`

	// Extras carries workload-specific auxiliary metrics (kv hits,
	// writer ops, shard-model predictions, ...).
	Extras map[string]float64 `json:"extras,omitempty"`
	// Notes carries non-numeric annotations (e.g. the unbounded
	// disparity of a starved worker, which JSON cannot encode).
	Notes map[string]string `json:"notes,omitempty"`
}

// Result is one harness invocation's machine-readable outcome. Every
// harness command emits this exact schema under -json, for reporting:
// nothing in the repository gates on it.
type Result struct {
	Schema  int    `json:"schema"`
	Harness string `json:"harness"`
	// Track is "A" (real goroutine execution) or "B" (deterministic
	// coherence simulation); results are only comparable within a
	// track.
	Track  string            `json:"track,omitempty"`
	Config map[string]string `json:"config,omitempty"`
	Env    Env               `json:"env"`
	Cells  []Cell            `json:"cells"`
	// Lockstat holds optional per-lock telemetry snapshots (pooled
	// across the harness run), keyed by lock name.
	Lockstat map[string]lockstat.Snapshot `json:"lockstat,omitempty"`
}

// NewResult constructs an empty result for the named harness with the
// environment captured now.
func NewResult(harnessName, track string, seed uint64) *Result {
	return &Result{
		Schema:  SchemaVersion,
		Harness: harnessName,
		Track:   track,
		Config:  map[string]string{},
		Env:     CaptureEnv(seed),
	}
}

// CellFromMeasurement renders one engine measurement as a schema cell.
func CellFromMeasurement(lock, workload, unit string, m Measurement) Cell {
	sum := Summarize(m.Scores)
	med := m.MedianOutcome()
	c := Cell{
		Lock:      lock,
		Workload:  workload,
		Threads:   m.Threads,
		Unit:      unit,
		Score:     m.Median,
		Runs:      append([]float64(nil), m.Scores...),
		Summary:   &sum,
		Jain:      Finite(m.Jain()),
		Disparity: Finite(m.Disparity()),
		PerWorker: append([]uint64(nil), med.PerWorker...),
		ElapsedNS: med.Elapsed.Nanoseconds(),
		Extras:    med.Extras,
	}
	// encoding/json rejects non-finite values outright; an unbounded
	// disparity (a worker starved to zero ops) is real signal, so it
	// is preserved as a note rather than crashing the encoder.
	if math.IsInf(m.Disparity(), 1) {
		c.Notes = map[string]string{"disparity": "+Inf (a worker completed zero operations)"}
	}
	return c
}

// Finite maps NaN/±Inf to 0 so cells always encode; encoding/json
// refuses non-finite floats. Callers preserve the lost signal in
// Cell.Notes when it matters.
func Finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// Add appends a cell.
func (r *Result) Add(c Cell) { r.Cells = append(r.Cells, c) }

// SetConfig records one configuration key (duration, mode, keys, ...)
// for provenance.
func (r *Result) SetConfig(k, v string) {
	if r.Config == nil {
		r.Config = map[string]string{}
	}
	r.Config[k] = v
}

// WriteJSON encodes r as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

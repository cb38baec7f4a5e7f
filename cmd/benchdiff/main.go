// Command benchdiff is the repository's performance-regression
// comparator: it reads versioned harness Result files (any harness
// command's -json output) and compares them cell-by-cell
// (workload × lock × thread count) with noise-aware thresholds — the
// effective gate per cell is max(-threshold, noise-mult × the cell's
// own run-to-run coefficient of variation), so noisy cells must move
// further to be believed.
//
// Usage:
//
//	benchdiff old.json new.json     compare two result files
//	benchdiff -dir results/         walk a trajectory: diff each
//	                                consecutive pair of *.json files in
//	                                lexical (i.e. chronological, when
//	                                timestamp-named) order
//	benchdiff -check file.json      self-diff smoke test: a file must
//	                                compare clean against itself
//	benchdiff -merge -out=baseline.json a.json b.json ...
//	                                combine several harness results
//	                                (same track, disjoint cells) into
//	                                one baseline under the merged
//	                                harness name (-name, default
//	                                "suite") — the only sanctioned way
//	                                a baseline spans harness commands,
//	                                since plain diffs refuse
//	                                cross-harness comparisons
//
// Exit status: 0 no regressions, 1 at least one regression flagged,
// 2 usage or I/O error (including schema-version mismatches,
// cross-harness/cross-track comparisons, and results taken at
// different CPU counts or GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := harness.DefaultDiffOptions()
	threshold := fs.Float64("threshold", def.Threshold, "minimum relative score drop flagged as a regression")
	noiseMult := fs.Float64("noise-mult", def.NoiseMult, "noise widening: gate = max(threshold, noise-mult × run CV)")
	dir := fs.String("dir", "", "diff each consecutive pair of *.json files in this directory")
	check := fs.String("check", "", "self-diff this result file (schema + comparator smoke test)")
	merge := fs.Bool("merge", false, "merge the argument result files into one baseline (requires -out)")
	mergeName := fs.String("name", "suite", "merged harness name for -merge")
	mergeOut := fs.String("out", "", "output path for -merge")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := harness.DiffOptions{Threshold: *threshold, NoiseMult: *noiseMult}

	switch {
	case *merge:
		if fs.NArg() < 1 || *mergeOut == "" || *check != "" || *dir != "" {
			fmt.Fprintln(stderr, "usage: benchdiff -merge -out=baseline.json [-name=suite] a.json [b.json ...]")
			return 2
		}
		ins := make([]*harness.Result, 0, fs.NArg())
		for _, p := range fs.Args() {
			r, err := harness.ReadFile(p)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			ins = append(ins, r)
		}
		merged, err := harness.Merge(*mergeName, ins...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := merged.WriteFile(*mergeOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "merged %d file(s), %d cell(s) → %s (harness %q)\n",
			len(ins), len(merged.Cells), *mergeOut, merged.Harness)
		return 0

	case *check != "":
		if fs.NArg() != 0 || *dir != "" {
			fmt.Fprintln(stderr, "-check takes no other arguments")
			return 2
		}
		return diffFiles(*check, *check, opt, stdout, stderr)

	case *dir != "":
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "-dir takes no positional arguments")
			return 2
		}
		files, err := filepath.Glob(filepath.Join(*dir, "*.json"))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sort.Strings(files)
		if len(files) < 2 {
			fmt.Fprintf(stderr, "%s: need at least two *.json files for a trajectory, found %d\n", *dir, len(files))
			return 2
		}
		worst := 0
		for i := 1; i < len(files); i++ {
			if code := diffFiles(files[i-1], files[i], opt, stdout, stderr); code > worst {
				worst = code
			}
		}
		return worst

	case fs.NArg() == 2:
		return diffFiles(fs.Arg(0), fs.Arg(1), opt, stdout, stderr)

	default:
		fmt.Fprintln(stderr, "usage: benchdiff [flags] old.json new.json | -dir results/ | -check file.json")
		return 2
	}
}

// diffFiles compares two result files and renders the report.
func diffFiles(oldPath, newPath string, opt harness.DiffOptions, stdout, stderr io.Writer) int {
	oldR, err := harness.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newR, err := harness.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := harness.Diff(oldR, newR, opt)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, w := range rep.EnvWarnings {
		fmt.Fprintf(stdout, "warning: environment differs: %s\n", w)
	}
	rep.Table(fmt.Sprintf("%s: %s → %s", oldR.Harness, oldPath, newPath)).Render(stdout)
	for _, k := range rep.MissingInNew {
		fmt.Fprintf(stdout, "coverage: cell %s missing in %s\n", k, newPath)
	}
	for _, k := range rep.AddedInNew {
		fmt.Fprintf(stdout, "coverage: cell %s added in %s\n", k, newPath)
	}
	if n := rep.Regressions(); n > 0 {
		fmt.Fprintf(stdout, "%d regression(s), %d improvement(s), %d cell(s) compared\n",
			n, rep.Improvements(), len(rep.Deltas))
		return 1
	}
	fmt.Fprintf(stdout, "no regressions (%d improvement(s), %d cell(s) compared)\n",
		rep.Improvements(), len(rep.Deltas))
	return 0
}

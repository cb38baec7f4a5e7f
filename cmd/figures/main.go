// Command figures regenerates the tables and figures from the paper's
// evaluation, writing one text file per experiment into -out (default
// ./results). It walks experiments.Files, the one list of results
// files, and is the single entry point behind EXPERIMENTS.md.
//
// Usage:
//
//	figures [-out=results] [-quick] [-only=table1,fig1_sim_arm,...]
//
// -only selects files by stem (the name without .txt); the default is
// every file. -quick shrinks the Track A measurements; Track B files
// are the same either way.
//
// Exit status: 0 all files written, 1 a file could not be written,
// 2 usage error (including an unknown -only stem).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("out", "results", "output directory")
	quick := fs.Bool("quick", false, "shrink Track A durations for a fast smoke pass")
	only := fs.String("only", "", "comma-separated file stems to regenerate (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	files, err := selectFiles(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	budget := experiments.FullBudget
	if *quick {
		budget = experiments.QuickBudget
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, f := range files {
		path := filepath.Join(*outDir, f.Name())
		if err := os.WriteFile(path, f.Render(budget), 0o644); err != nil {
			fmt.Fprintf(stderr, "figures: writing %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return 0
}

// selectFiles resolves -only against experiments.Files, keeping the
// list's order. An empty selection means every file.
func selectFiles(only string) ([]experiments.File, error) {
	if only == "" {
		return experiments.Files, nil
	}
	var stems []string
	for _, f := range experiments.Files {
		stems = append(stems, f.Stem)
	}
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		s = strings.TrimSpace(s)
		if !slices.Contains(stems, s) {
			return nil, fmt.Errorf("figures: unknown -only stem %q; valid stems: %s", s, strings.Join(stems, ", "))
		}
		want[s] = true
	}
	var files []experiments.File
	for _, f := range experiments.Files {
		if want[f.Stem] {
			files = append(files, f)
		}
	}
	return files, nil
}

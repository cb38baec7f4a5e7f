package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownStemExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only=table2,table9", "-out=" + t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	for _, s := range []string{`"table9"`, "table1", "fig1_sim_arm", "mitigation", "uncontended"} {
		if !strings.Contains(msg, s) {
			t.Fatalf("stderr should name %s: %s", s, msg)
		}
	}
}

func TestOnlyWritesSelectedFiles(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-only=table2,retrograde", "-out=" + dir}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "retrograde.txt table2.txt" {
		t.Fatalf("wrote %v, want exactly retrograde.txt and table2.txt", names)
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from results/%s", name, name)
		}
	}
}

func TestWriteFailureExitsOne(t *testing.T) {
	// A directory where retrograde.txt should go makes its write fail.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "retrograde.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-only=table2,retrograde", "-out=" + dir}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "retrograde.txt") {
		t.Fatalf("stderr should name the file: %s", errb.String())
	}
	if strings.Contains(out.String(), "retrograde.txt") {
		t.Fatalf("stdout claims the failed write: %s", out.String())
	}
}

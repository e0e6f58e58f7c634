package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/default.golden from the current output")

// TestRunDefaultGolden pins every experiment's output at the default
// flags: the tables and figures must stay byte-identical unless a
// change means to move them. Such a change regenerates the file with
//
//	go test ./cmd/benchreport -run TestRunDefaultGolden -update
//
// and says in its description why the numbers moved.
func TestRunDefaultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full default run takes seconds")
	}
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "default.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, got[i], exp[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(got), path, len(exp))
}

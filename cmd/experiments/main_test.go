package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the current model and simulator")

// experimentsPath is the committed report, at the repository root.
var experimentsPath = filepath.Join("..", "..", "EXPERIMENTS.md")

// TestExperimentsMarkdown regenerates the paper-reproduction report and
// requires the committed EXPERIMENTS.md to match byte for byte, so a change
// that moves any figure number shows up as a diff of that file. Refresh it
// with
//
//	go test ./cmd/experiments -run TestExperimentsMarkdown -update
func TestExperimentsMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	var got bytes.Buffer
	if err := writeMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(experimentsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md is stale at line %d:\n got: %q\nwant: %q\nregenerate with -update", i+1, g, w)
		}
	}
}

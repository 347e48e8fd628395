package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mobility"
)

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "0x5"},
		{"-grid", "-3x4"},
		{"-grid", "4x4x"},
		{"-grid", "x"},
		{"-model", "teleport"},
		{"-objects", "0"},
		{"-moves", "-2"},
		{"-queries", "-1"},
		{"-grid", "4x4", "extra"},
		{"-levels", "3"}, // unknown flag
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mottrace %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("mottrace %s: stdout %q, stderr %q; want only a message on stderr", strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-grid", "6x5", "-objects", "4", "-moves", "12", "-queries", "3", "-model", "waypoint", "-json", path}
	var stdout bytes.Buffer
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("mottrace %s: exit %d, want 0", strings.Join(args, " "), code)
	}
	if out := stdout.String(); !strings.HasPrefix(out, "grid 6x5 (30 sensors), 4 objects, 48 moves, 3 queries, model waypoint\n") ||
		!strings.HasSuffix(out, "trace written to "+path+"\n") {
		t.Fatalf("mottrace %s: output\n%s", strings.Join(args, " "), out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wl mobility.Workload
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatal(err)
	}
	if wl.Objects != 4 || len(wl.Moves) != 48 || len(wl.Queries) != 3 {
		t.Fatalf("trace holds %d objects, %d moves, %d queries", wl.Objects, len(wl.Moves), len(wl.Queries))
	}

	// An unwritable -json path is an error exit, after the report.
	args = []string{"-grid", "3x3", "-json", filepath.Join(t.TempDir(), "missing", "trace.json")}
	var stderr bytes.Buffer
	if code := run(args, io.Discard, &stderr); code != 1 || stderr.Len() == 0 {
		t.Fatalf("mottrace %s: exit %d, stderr %q; want 1 and a message", strings.Join(args, " "), code, stderr.String())
	}
}

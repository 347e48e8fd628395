package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "0x5"},
		{"-grid", "-3x4"},
		{"-grid", "4x4x"},
		{"-grid", "4"},
		{"-grid", "9223372036854775807x2"},
		{"-ring", "2"},
		{"-ring", "-3"},
		{"-ring", "0"},
		{"-grid", "4x4", "-dpath", "99"},
		{"-grid", "4x4", "-dpath", "16"},
		{"-grid", "4x4", "-dpath", "-2"},
		{"-grid", "4x4", "extra"},
		{"-levels", "3"}, // unknown flag
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mothier %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("mothier %s: stdout %q, stderr %q; want only a message on stderr", strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

func TestRunDumpsHierarchy(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "4X4", "-dpath", "15"},
		{"-ring", "3", "-dpath", "0", "-parentsets"},
		{"-grid", "6x6", "-general", "-dpath", "7"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 0 {
			t.Fatalf("mothier %s: exit %d, want 0", strings.Join(args, " "), code)
		}
		out := stdout.String()
		if !strings.Contains(out, "DPath(") || !strings.HasSuffix(out, "invariants: ok\n") {
			t.Fatalf("mothier %s: output\n%s", strings.Join(args, " "), out)
		}
	}
}

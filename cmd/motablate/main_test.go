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
		{"-objects", "0"},
		{"-objects", "-1"},
		{"-moves", "-2"},
		{"-queries", "-1"},
		{"-grid", "4x4", "extra"},
		{"-levels", "3"}, // unknown flag
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("motablate %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("motablate %s: stdout %q, stderr %q; want only a message on stderr", strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

func TestRunPrintsAblation(t *testing.T) {
	args := []string{"-grid", "5X4", "-objects", "3", "-moves", "10", "-queries", "0"}
	var stdout bytes.Buffer
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("motablate %s: exit %d, want 0", strings.Join(args, " "), code)
	}
	out := stdout.String()
	for _, want := range []string{"grid 5x4, 3 objects, 10 moves/object, 0 queries", "general overlay (§6)", "period gate true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("motablate %s: output lacks %q:\n%s", strings.Join(args, " "), want, out)
		}
	}
}

package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags pins that run refuses out-of-range and unknown
// flags with exit 2 before it builds or serves anything, instead of
// silently serving a default in their place.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-shards", "-3"},
		{"-nodes", "0"},
		{"-nodes", "-1"},
		{"-inflight", "0"},
		{"-queue", "1024"}, // unknown flag
		{"extra"},
	} {
		argv := append([]string{"-addr", "127.0.0.1:0"}, args...)
		if code := run(argv); code != 2 {
			t.Errorf("motserve %s: exit %d, want 2", strings.Join(argv, " "), code)
		}
	}
}

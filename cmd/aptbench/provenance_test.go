package main

import "testing"

// TestGitCommitResolves: inside this repo the provenance stamp must be a
// real revision, not the "unknown" fallback.
func TestGitCommitResolves(t *testing.T) {
	c := gitCommit()
	if c == "" || c == "unknown" {
		t.Fatalf("gitCommit() = %q inside a git checkout", c)
	}
}

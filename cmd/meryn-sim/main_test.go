package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagCombosExitNonZero pins the error contract: invalid flag
// combinations and unknown values exit non-zero with a one-line message.
func TestBadFlagCombosExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-policy", "bogus", "-vc1-apps", "1", "-vc2-apps", "0"},
		{"-workers", "4"},                   // sweep-only flag without -sweep
		{"-svc-load", "2"},                  // services-only flag without -services
		{"-sweep", "default", "-chart"},     // single-run flag with -sweep
		{"-services", "-policy", "static"},  // single-run flag with -services
		{"-sweep", "nope=1"},                // unknown sweep axis
		{"-sweep", "seed=0"},                // seed 0 reads as unset
		{"-sweep", "default", "-seed", "0"}, // grids start at seed 1
		{"-trace", "/does/not/exist.csv", "-vc1-apps", "1"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
		msg := strings.TrimSpace(stderr.String())
		if msg == "" || !strings.HasPrefix(msg, "meryn-sim:") {
			t.Errorf("run(%v) stderr = %q, want one-line meryn-sim: message", args, msg)
		}
	}
}

// TestJSONErrorObject pins the machine-readable error contract: a
// failing run with -json writes {"error": "..."} to the JSON target.
func TestJSONErrorObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "bogus-axis=1", "-json", path}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("bad sweep spec with -json exited 0")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("JSON error file not written: %v", err)
	}
	var obj struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatalf("JSON target is not a JSON object: %q", b)
	}
	if obj.Error == "" {
		t.Fatalf("JSON error object has empty error: %q", b)
	}
}

// TestJSONErrorToStdout covers the "-" target.
func TestJSONErrorToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "bogus-axis=1", "-json", "-"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exited 0")
	}
	var obj struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil || obj.Error == "" {
		t.Fatalf("stdout JSON error = %q (err %v)", stdout.String(), err)
	}
}

// TestListExitsZero keeps the catalogue path healthy.
func TestListExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table1") {
		t.Fatalf("catalogue missing experiments: %q", stdout.String())
	}
}

// TestSmallRunSucceeds exercises the single-run happy path end to end
// with a tiny workload.
func TestSmallRunSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-vc1-apps", "2", "-vc2-apps", "1", "-work", "100"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "applications: 3") {
		t.Fatalf("summary = %q", stdout.String())
	}
}

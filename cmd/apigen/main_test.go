package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// checkInSync compares one generated output byte-for-byte with the
// checked-in file, so spec edits that skip `go run ./cmd/apigen` break the
// build here rather than at runtime.
func checkInSync(t *testing.T, path string, want []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale; rerun: go run ./cmd/apigen", path)
	}
}

// TestGeneratedFilesInSync regenerates the CUDA surface's outputs from the
// spec and compares them with the checked-in files.
func TestGeneratedFilesInSync(t *testing.T) {
	calls := buildSpec()
	if err := validate(calls); err != nil {
		t.Fatal(err)
	}
	src, err := genAPI(cudaSurface, calls)
	checkInSync(t, "../../internal/remoting/gen/gen.go", src, err)
	src, err = genTable(calls)
	checkInSync(t, "../../internal/remoting/gen/calltable.go", src, err)
}

// TestStoreGeneratedFileInSync does the same for the store surface.
func TestStoreGeneratedFileInSync(t *testing.T) {
	calls := buildStoreSpec()
	if err := validate(calls); err != nil {
		t.Fatal(err)
	}
	src, err := genAPI(storeSurface, calls)
	checkInSync(t, "../../internal/store/remote_gen.go", src, err)
}

// classificationText renders the call-classification sets in a stable
// textual form for the golden comparison.
func classificationText(calls []Call) string {
	var deferrable, establishing []string
	for _, c := range calls {
		if c.Async {
			deferrable = append(deferrable, c.Name)
		}
		if c.Establishes {
			establishing = append(establishing, c.Name)
		}
	}
	sort.Strings(deferrable)
	sort.Strings(establishing)
	var b strings.Builder
	b.WriteString("deferrable:\n")
	for _, n := range deferrable {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	b.WriteString("state-establishing:\n")
	for _, n := range establishing {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// TestCallTableGolden pins the deferrable and state-establishing sets to a
// golden file: classification drift (a call silently becoming deferrable,
// or losing its journal obligation) must be an explicit, reviewed change.
func TestCallTableGolden(t *testing.T) {
	got := classificationText(buildSpec())
	goldenPath := filepath.Join("testdata", "calltable.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("call classification changed:\n--- got ---\n%s--- want (%s) ---\n%s", got, goldenPath, want)
	}
}

// TestSpecInvariants checks cross-cutting properties of the classification
// flags themselves.
func TestSpecInvariants(t *testing.T) {
	calls := buildSpec()
	if err := validate(calls); err != nil {
		t.Fatal(err)
	}
	if err := validate(buildStoreSpec()); err != nil {
		t.Fatal(err)
	}
	handleKinds := map[string]bool{"stream": true, "event": true, "dnn": true, "blas": true}
	for _, c := range calls {
		// Free must fence: it is batchable but never one-way, because the
		// lane may still hold work referencing the freed memory.
		if c.Name == "Free" && c.Async {
			t.Error("Free must not be Async (it must drain the lane first)")
		}
		// Remote calls handing out stream/event/library handles create
		// server-side state by construction.
		if c.Class == "remote" {
			for _, f := range c.Resp {
				if handleKinds[f.Kind] && !c.Establishes {
					t.Errorf("%s returns a %s handle but is not marked Establishes", c.Name, f.Kind)
				}
			}
		}
		// Destroy/free calls tear state down; replaying them on recovery
		// would be wrong.
		if strings.Contains(c.Name, "Destroy") && c.Establishes {
			t.Errorf("%s tears down state; it must not be marked Establishes", c.Name)
		}
	}
}
